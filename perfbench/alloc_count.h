// Heap-allocation accounting for the benchmark program.
//
// The benchmark replaces the global operator new (alloc_count.cc) and counts
// an allocation when either
//   - the allocating thread is inside a ProgramCall scope (the benchmark is
//     calling into the ccam library on this thread), or
//   - a ServeWindow is open and the allocating thread is not the
//     benchmark's client thread (QueryService workers do the program's
//     work on their own threads while the client waits).
// The benchmark's own bookkeeping — request building, answer checks, span
// recording outside a call — is never counted.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;

  friend AllocTotals operator-(const AllocTotals& a, const AllocTotals& b) {
    return {a.count - b.count, a.bytes - b.bytes};
  }
};

/// Allocations counted so far, process-wide.
AllocTotals CountedAllocs();

/// Marks the calling thread as the benchmark's client thread, whose
/// allocations count only inside a ProgramCall.
void MarkClientThread();

/// RAII: the calling thread is inside a call into the program.
class ProgramCall {
 public:
  ProgramCall();
  ~ProgramCall();
  ProgramCall(const ProgramCall&) = delete;
  ProgramCall& operator=(const ProgramCall&) = delete;
};

/// RAII: every thread except the client thread counts while this is open.
class ServeWindow {
 public:
  ServeWindow();
  ~ServeWindow();
  ServeWindow(const ServeWindow&) = delete;
  ServeWindow& operator=(const ServeWindow&) = delete;
};

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
