#ifndef CCAM_STORAGE_IO_STATS_H_
#define CCAM_STORAGE_IO_STATS_H_

#include <cstdint>

namespace ccam {

/// Page I/O counters. The paper's experiments report the *number of data
/// page accesses*; these counters are the source of that metric.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocs = 0;
  uint64_t frees = 0;

  uint64_t Accesses() const { return reads + writes; }

  /// Delta between two snapshots, per-field *saturating* at zero. A
  /// "before" snapshot can legitimately exceed "after" when the counters
  /// were reset in between — a session outliving a pool Reset(), a bench
  /// sampling across LoadFromFile() (which zeroes the disk counters) — and
  /// the old wrapping subtraction silently turned that into a huge bogus
  /// delta that poisoned every derived average. A saturated field reads as
  /// "no accesses since the reset", which is the honest lower bound.
  friend IoStats operator-(const IoStats& a, const IoStats& b) {
    auto sub = [](uint64_t x, uint64_t y) { return x >= y ? x - y : 0; };
    return {sub(a.reads, b.reads), sub(a.writes, b.writes),
            sub(a.allocs, b.allocs), sub(a.frees, b.frees)};
  }

  /// Field-wise sum: the total of several streams' counters.
  friend IoStats operator+(const IoStats& a, const IoStats& b) {
    return {a.reads + b.reads, a.writes + b.writes, a.allocs + b.allocs,
            a.frees + b.frees};
  }

  friend bool operator==(const IoStats& a, const IoStats& b) {
    return a.reads == b.reads && a.writes == b.writes &&
           a.allocs == b.allocs && a.frees == b.frees;
  }
};

}  // namespace ccam

#endif  // CCAM_STORAGE_IO_STATS_H_
