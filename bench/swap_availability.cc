// Reader availability during online reorganization: the headline number
// of the snapshot-swap design. One reader session runs point queries
// (Find + GetSuccessors over random live nodes, Refresh every 256 ops)
// in two phases:
//
//   * quiesced — no reorganization anywhere; baseline p50/p99/qps;
//   * reorg    — a writer thread runs back-to-back full
//     reorganizations (mutate, rebuild, swap) for the whole window.
//
// With in-place reclustering the reorg phase would stall readers for
// the full rebuild; with the versioned swap the reader never blocks —
// the p99 ratio is the measured availability cost. Both phases append
// to BENCH_swap_availability.json (scripts/check_perf.sh diffs it:
// *_us / qps fields within tolerance, config ints exactly).
//
// The binary self-gates (nonzero exit) on a reader error or an empty
// phase — never on the timing ratio itself, which is meaningless in
// debug builds.
//
// Env knobs: CCAM_SWAP_BENCH_OPS (quiesced ops, default 20000),
// CCAM_SWAP_BENCH_SWAPS (reorg-phase swaps, default 12).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/graph/generator.h"
#include "src/storage/snapshot_manager.h"

namespace ccam {
namespace bench {
namespace {

constexpr int kNodes = 1200;
constexpr size_t kPoolPages = 16;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v > 0) return static_cast<uint64_t>(v);
  }
  return fallback;
}

struct PhaseResult {
  uint64_t ops = 0;
  double p50_us = 0;
  double p99_us = 0;
  double qps = 0;
  bool failed = false;
};

double Percentile(std::vector<double>* lat, double p) {
  if (lat->empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(lat->size() - 1));
  std::nth_element(lat->begin(), lat->begin() + idx, lat->end());
  return (*lat)[idx];
}

/// Runs point queries until `stop` flips (and at least `min_ops` either
/// way). Opens its own session: one session per thread.
PhaseResult RunReader(SnapshotManager* store, std::atomic<bool>* stop,
                      uint64_t min_ops, uint64_t seed) {
  PhaseResult r;
  std::unique_ptr<ReadSession> session = store->OpenSession();
  std::vector<NodeId> ids = session->LiveNodeIds();
  Random rng(seed);
  std::vector<double> lat;
  lat.reserve(min_ops);
  auto phase_start = std::chrono::steady_clock::now();
  while (r.ops < min_ops ||
         (stop != nullptr && !stop->load(std::memory_order_acquire))) {
    NodeId id = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    auto t0 = std::chrono::steady_clock::now();
    auto rec = session->Find(id);
    auto succ = rec.ok() ? session->GetSuccessors(id)
                         : Result<std::vector<NodeRecord>>(rec.status());
    auto t1 = std::chrono::steady_clock::now();
    if (!rec.ok() || !succ.ok()) {
      std::fprintf(stderr, "reader: live node %llu unreadable: %s\n",
                   static_cast<unsigned long long>(id),
                   (rec.ok() ? succ.status() : rec.status()).ToString().c_str());
      r.failed = true;
      return r;
    }
    lat.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++r.ops;
    if (r.ops % 256 == 0) {
      session->Refresh();
      ids = session->LiveNodeIds();
    }
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - phase_start)
                    .count();
  r.p50_us = Percentile(&lat, 0.50);
  r.p99_us = Percentile(&lat, 0.99);
  r.qps = secs > 0 ? static_cast<double>(r.ops) / secs : 0;
  return r;
}

int Run() {
  const uint64_t kOps = EnvU64("CCAM_SWAP_BENCH_OPS", 20000);
  const uint64_t kSwaps = EnvU64("CCAM_SWAP_BENCH_SWAPS", 12);

  SnapshotOptions sopt;
  sopt.am.page_size = 1024;
  sopt.am.buffer_pool_pages = kPoolPages;
  const char* tmp = std::getenv("TMPDIR");
  sopt.dir = std::string(tmp != nullptr ? tmp : "/tmp") +
             "/ccam_bench_swap_store";
  std::error_code ec;
  std::filesystem::remove_all(sopt.dir, ec);

  Network net = GenerateRandomGeometricNetwork(kNodes, 45.0, 1000.0, 1995);
  auto mgr = SnapshotManager::Create(sopt, net);
  if (!mgr.ok()) {
    std::fprintf(stderr, "create: %s\n", mgr.status().ToString().c_str());
    return 1;
  }
  SnapshotManager* store = mgr->get();

  // --- Phase 1: quiesced baseline.
  PhaseResult quiesced = RunReader(store, nullptr, kOps, 7);
  if (quiesced.failed || quiesced.ops == 0) return 1;

  // --- Phase 2: same workload while a writer swaps back to back.
  std::atomic<bool> stop{false};
  PhaseResult reorg;
  std::thread reader([&] { reorg = RunReader(store, &stop, kOps / 4, 11); });
  NodeId next_id = 0;
  for (NodeId id : net.NodeIds()) next_id = std::max(next_id, id + 1);
  std::vector<NodeId> anchors = net.NodeIds();
  bool writer_failed = false;
  for (uint64_t s = 0; s < kSwaps; ++s) {
    NodeRecord rec;
    rec.id = next_id++;
    rec.x = static_cast<double>(s);
    rec.y = -1.0;
    rec.succ.push_back({anchors[s % anchors.size()], 1.0f});
    if (!store->InsertNode(rec).ok() || !store->ReorganizeNow().ok()) {
      writer_failed = true;
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  if (writer_failed || reorg.failed || reorg.ops == 0) return 1;
  if (store->ReorgCount() != kSwaps) return 1;

  TablePrinter table({"mode", "swaps", "p50 us", "p99 us", "qps"});
  table.AddRow({"quiesced", "0", Fmt(quiesced.p50_us, 2),
                Fmt(quiesced.p99_us, 2), Fmt(quiesced.qps, 0)});
  table.AddRow({"reorg", std::to_string(kSwaps), Fmt(reorg.p50_us, 2),
                Fmt(reorg.p99_us, 2), Fmt(reorg.qps, 0)});
  table.Print();
  double ratio = quiesced.p99_us > 0 ? reorg.p99_us / quiesced.p99_us : 0;
  std::printf("\nreader p99 during reorg = %.2fx quiesced "
              "(%llu swaps completed under load)\n",
              ratio, static_cast<unsigned long long>(kSwaps));

  BenchJsonWriter json("swap_availability");
  json.AddTable("availability", table);
  json.AddRecord("config",
                 {{"nodes", std::to_string(kNodes)},
                  {"pool pages", std::to_string(kPoolPages)},
                  {"swaps", std::to_string(kSwaps)},
                  // "rate" keys the field as wall-clock-noisy for
                  // scripts/check_perf.sh; config ints stay exact.
                  {"p99 inflation rate", Fmt(ratio, 3)}});
  return json.Write() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace ccam

int main() { return ccam::bench::Run(); }
