// Concurrent read-path throughput: route evaluation and A* over one
// shared CCAM file from multiple query threads.
//
// Each thread owns a ReadSession (per-stream IoStats) over the same
// NetworkFile and buffer pool; the pool is sharded and misses overlap,
// so queries scale with the thread count until the pool's misses
// saturate the (simulated) disk. The disk models a fixed per-read
// latency (CCAM_BENCH_DISK_LAT_US, default 100) — with instantaneous
// reads a single CPU-bound thread saturates immediately and the sweep
// measures nothing.
//
// Reported per (workload, pool size, threads): queries/sec, p50/p99
// query latency, and the summed per-session data-page accesses, which
// are asserted to equal the global disk-read delta (the paper's
// accounting convention survives concurrency exactly). Every cell is
// appended to BENCH_query_throughput.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/core/read_session.h"
#include "src/graph/route.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"

namespace ccam {
namespace bench {
namespace {

constexpr int kRoutes = 256;
constexpr int kRouteLength = 24;
constexpr int kAStarQueries = 96;
const char* kImagePath = "bench_query_throughput.img";

// A shard must keep at least kMinFramesPerShard frames so it can absorb
// one pinned in-flight miss per query thread without running out of
// evictable frames (see docs/INTERNALS.md, sizing rule).
size_t ShardsFor(size_t pool_pages) {
  return std::max<size_t>(
      1, std::min<size_t>(8, pool_pages / BufferPool::kMinFramesPerShard));
}

uint32_t DiskLatencyMicros() {
  if (const char* env = std::getenv("CCAM_BENCH_DISK_LAT_US")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 0) return static_cast<uint32_t>(v);
  }
  return 100;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepPoint {
  int threads = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t page_accesses = 0;
  bool conserved = false;
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  return (*v)[idx];
}

/// Runs `queries` query thunks on `threads` threads, one ReadSession per
/// thread, and gathers qps / latency percentiles / per-session accesses.
/// `run` is invoked as run(session, query_index) and returns true on
/// success.
template <typename Fn>
SweepPoint RunSweep(NetworkFile* file, int threads, int queries, Fn run) {
  std::vector<std::unique_ptr<ReadSession>> sessions;
  std::vector<std::vector<double>> latencies(threads);
  for (int t = 0; t < threads; ++t) sessions.push_back(file->OpenSession());

  uint64_t disk_reads_before = file->disk()->stats().reads;
  auto t0 = std::chrono::steady_clock::now();
  {
    ThreadPool pool(threads);
    for (int t = 0; t < threads; ++t) {
      ReadSession* session = sessions[t].get();
      std::vector<double>* lat = &latencies[t];
      pool.Submit([=] {
        // Round-robin assignment: thread t runs queries t, t+T, t+2T, ...
        for (int q = t; q < queries; q += threads) {
          auto q0 = std::chrono::steady_clock::now();
          if (!run(session, q)) std::abort();
          lat->push_back(SecondsSince(q0) * 1e6);
        }
      });
    }
    pool.WaitIdle();
  }
  double wall = SecondsSince(t0);
  uint64_t disk_reads = file->disk()->stats().reads - disk_reads_before;

  SweepPoint point;
  point.threads = threads;
  point.qps = static_cast<double>(queries) / wall;
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  point.p50_us = Percentile(&all, 0.50);
  point.p99_us = Percentile(&all, 0.99);
  for (auto& s : sessions) point.page_accesses += s->DataIoStats().reads;
  // Per-session counters must sum exactly to the global disk reads: a
  // fetch is charged iff it missed the shared pool.
  point.conserved = point.page_accesses == disk_reads;
  return point;
}

int Run() {
  const uint32_t latency_us = DiskLatencyMicros();
  const std::vector<int> thread_counts = BenchThreadCounts();

  // ~8k-node road map (the scale bench's largest size).
  RoadMapOptions gen;
  gen.rows = 91;
  gen.cols = 91;
  gen.nodes_to_remove = 91 / 4;
  gen.seed = 1000 + 91;
  Network net = GenerateRoadMap(gen);
  std::printf("Query throughput: %zu nodes / %zu edges, CCAM-S, "
              "simulated disk read latency %u us\n\n",
              net.NumNodes(), net.NumEdges(), latency_us);

  std::vector<Route> routes =
      GenerateRandomWalkRoutes(net, kRoutes, kRouteLength, 7);

  // Create the file once, then reopen the saved image per pool size (the
  // pool capacity is fixed at construction).
  {
    AccessMethodOptions options;
    options.page_size = 1024;
    auto am = MakeMethod(Method::kCcamS, options);
    if (!am->Create(net).ok() || !am->SaveImage(kImagePath).ok()) {
      std::fprintf(stderr, "create failed\n");
      return 1;
    }
  }
  auto open = [&](size_t pool_pages) {
    AccessMethodOptions options;
    options.page_size = 1024;
    options.buffer_pool_pages = pool_pages;
    options.buffer_pool_shards = ShardsFor(pool_pages);
    auto am = MakeMethod(Method::kCcamS, options);
    if (!am->OpenImage(kImagePath).ok()) return std::unique_ptr<NetworkFile>();
    am->disk()->SetSimulatedReadLatencyMicros(latency_us);
    return am;
  };

  BenchJsonWriter json("query_throughput");
  auto emit = [&](const char* workload, size_t pool_pages,
                  const SweepPoint& p, int queries) {
    json.AddRecord(
        workload,
        {{"pool_pages", std::to_string(pool_pages)},
         {"shards", std::to_string(ShardsFor(pool_pages))},
         {"threads", std::to_string(p.threads)},
         {"disk_read_latency_us", std::to_string(latency_us)},
         {"queries", std::to_string(queries)},
         {"qps", Fmt(p.qps, 1)},
         {"p50_us", Fmt(p.p50_us, 1)},
         {"p99_us", Fmt(p.p99_us, 1)},
         {"page_accesses", std::to_string(p.page_accesses)},
         {"conserved", p.conserved ? "true" : "false"}});
  };

  // --- Route evaluation vs threads and pool size -------------------------
  TablePrinter table({"pool", "threads", "qps", "p50 us", "p99 us",
                      "accesses", "conserved", "speedup"});
  bool all_conserved = true;
  double speedup_at_64 = 0.0;
  int max_threads = *std::max_element(thread_counts.begin(),
                                      thread_counts.end());
  for (size_t pool_pages : {16, 64, 256}) {
    auto am = open(pool_pages);
    if (!am) {
      std::fprintf(stderr, "open failed\n");
      return 1;
    }
    // Warm pass (untimed): fills the pool so every sweep starts warm.
    {
      auto warm = am->OpenSession();
      for (const Route& r : routes) {
        if (!EvaluateRoute(warm.get(), r).ok()) return 1;
      }
    }
    double qps1 = 0.0;
    for (int threads : thread_counts) {
      SweepPoint p = RunSweep(
          am.get(), threads, kRoutes, [&](ReadSession* s, int q) {
            return EvaluateRoute(s, routes[q]).ok();
          });
      if (threads == 1) qps1 = p.qps;
      double speedup = qps1 > 0 ? p.qps / qps1 : 0.0;
      if (pool_pages == 64 && threads == max_threads) speedup_at_64 = speedup;
      all_conserved &= p.conserved;
      table.AddRow({std::to_string(pool_pages), std::to_string(threads),
                    Fmt(p.qps, 0), Fmt(p.p50_us, 0), Fmt(p.p99_us, 0),
                    std::to_string(p.page_accesses),
                    p.conserved ? "yes" : "NO", Fmt(speedup, 2) + "x"});
      emit("route_eval", pool_pages, p, kRoutes);
    }
  }
  std::printf("Route evaluation (%d random-walk routes of %d nodes):\n",
              kRoutes, kRouteLength);
  table.Print();
  std::printf("\nroute-eval speedup at %d threads vs 1 (64-page pool): "
              "%.2fx\n\n",
              max_threads, speedup_at_64);

  // --- A* search vs threads (64-page pool) -------------------------------
  // Origin/destination pairs = endpoints of the walk routes: bounded
  // searches with realistic locality.
  TablePrinter astar({"threads", "qps", "p50 us", "p99 us", "accesses",
                      "conserved"});
  {
    auto am = open(64);
    if (!am) return 1;
    {
      auto warm = am->OpenSession();
      for (int q = 0; q < kAStarQueries; ++q) {
        const Route& r = routes[q % routes.size()];
        if (!ShortestPathAStar(warm.get(), r.nodes.front(), r.nodes.back())
                 .ok()) {
          return 1;
        }
      }
    }
    for (int threads : thread_counts) {
      SweepPoint p = RunSweep(
          am.get(), threads, kAStarQueries, [&](ReadSession* s, int q) {
            const Route& r = routes[q % routes.size()];
            return ShortestPathAStar(s, r.nodes.front(), r.nodes.back()).ok();
          });
      all_conserved &= p.conserved;
      astar.AddRow({std::to_string(threads), Fmt(p.qps, 0), Fmt(p.p50_us, 0),
                    Fmt(p.p99_us, 0), std::to_string(p.page_accesses),
                    p.conserved ? "yes" : "NO"});
      emit("astar", 64, p, kAStarQueries);
    }
  }
  std::printf("A* shortest path (%d OD pairs, 64-page pool):\n",
              kAStarQueries);
  astar.Print();
  std::remove(kImagePath);
  if (!all_conserved) {
    std::fprintf(stderr,
                 "FAIL: per-session accesses did not sum to disk reads\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ccam

int main() { return ccam::bench::Run(); }
