// Serving-layer load bench: open-loop Poisson traffic from many tenants
// (zipf hot-spot skew over the file's pages, users drawn from a space of
// millions) against the QueryService, region-batched vs unbatched.
//
// The service runs over a CCAM-S image with a deliberately small buffer
// pool and a simulated per-read disk latency, so throughput is
// disk-bound — exactly the regime where region batching pays: running
// concurrent same-region requests back to back on one worker turns all
// but the first region page fetch into buffer hits. The offered rate is set above either mode's
// capacity, so completed-requests/second measures service capacity (the
// admission controller sheds the rest with typed Overloaded rejections).
//
// Three phases, all appended to BENCH_serve_load.json:
//   * saturation: batched vs unbatched qps / latency / disk reads;
//   * low_load:   offered rate far below capacity — batching must not
//     hurt p99 when there is nothing to batch (bounded-window contract);
//   * equivalence: every pooled request answered by the batched service
//     must match a serial single-session oracle field for field.
//
// The binary self-gates (nonzero exit) on: zero qps, any equivalence
// mismatch, broken conservation, or batched capacity not beating
// unbatched by >= 1.5x qps or >= 25% fewer disk reads. scripts/ci.sh's
// `serve` stage relies on that.
//
// Env knobs: CCAM_SERVE_DURATION_MS (default 1500), CCAM_SERVE_QPS
// (saturation offered rate, default 24000), CCAM_BENCH_DISK_LAT_US
// (default 100), CCAM_SERVE_SKIP_GATE=1 (report without gating — for
// debug-build smoke runs where wall-clock ratios are meaningless),
// CCAM_SERVE_DEADLINE_US (per-request deadline budget; default 0 = off.
// When set, an extra `deadline` phase runs batched at the saturation
// rate with every request carrying submit+budget, reporting the miss
// rate — off by default so the standard artifact stays bit-identical).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/query_session.h"
#include "src/query/aggregate.h"
#include "src/query/hierarchy.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/serve/loadgen.h"
#include "src/serve/query_service.h"

namespace ccam {
namespace bench {
namespace {

const char* kImagePath = "bench_serve_load.img";
constexpr size_t kPoolPages = 32;
constexpr int kWorkers = 8;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env) return static_cast<uint64_t>(v);
  }
  return fallback;
}

std::unique_ptr<NetworkFile> OpenFile(uint32_t disk_lat_us) {
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = kPoolPages;
  auto am = MakeMethod(Method::kCcamS, options);
  if (!am->OpenImage(kImagePath).ok()) return nullptr;
  if (!am->BuildHierarchyOverlay().ok()) return nullptr;
  am->disk()->SetSimulatedReadLatencyMicros(disk_lat_us);
  return am;
}

serve::QueryServiceOptions ServiceOptions(bool batched) {
  serve::QueryServiceOptions options;
  options.num_workers = kWorkers;
  options.max_queue_depth = 2048;
  options.max_batch = 32;
  options.region_batching = batched;
  options.region_affinity = batched;
  return options;
}

/// One load phase: fresh service over a cold pool, one RunLoad.
serve::LoadReport RunPhase(NetworkFile* file,
                           const std::vector<serve::ServeRequest>& pool,
                           bool batched, const serve::LoadgenOptions& gen) {
  (void)file->buffer_pool()->Reset();  // cold start for a fair comparison
  serve::QueryService service(file, ServiceOptions(batched));
  serve::LoadReport report = serve::RunLoad(&service, file, pool, gen);
  service.Shutdown(/*drain=*/true);
  return report;
}

/// Serial oracle: answers `request` on a plain single-threaded session.
serve::ServeResponse Oracle(QuerySession* session,
                            const serve::ServeRequest& request) {
  serve::ServeResponse response;
  switch (request.op) {
    case serve::ServeOp::kRouteEval: {
      auto r = EvaluateRoute(session, request.route);
      if (r.ok()) {
        response.cost = r.value().total_cost;
        response.num_edges = r.value().num_edges;
      } else {
        response.status = r.status();
      }
      break;
    }
    case serve::ServeOp::kAStar: {
      auto r = ShortestPathAStar(session, request.route.nodes.front(),
                                 request.route.nodes.back());
      if (r.ok()) {
        response.cost = r.value().cost;
        response.num_edges =
            r.value().path.empty() ? 0 : r.value().path.size() - 1;
        response.path = r.value().path;
      } else {
        response.status = r.status();
      }
      break;
    }
    case serve::ServeOp::kHierarchy: {
      auto r = ShortestPathCH(session, request.route.nodes.front(),
                              request.route.nodes.back());
      if (r.ok()) {
        response.cost = r.value().cost;
        response.num_edges =
            r.value().path.empty() ? 0 : r.value().path.size() - 1;
        response.path = r.value().path;
      } else {
        response.status = r.status();
      }
      break;
    }
    case serve::ServeOp::kAggregate: {
      auto r = AggregateRouteUnit(session, request.unit);
      if (r.ok()) {
        response.cost = r.value().total_edge_cost;
        response.num_edges = r.value().num_edges;
      } else {
        response.status = r.status();
      }
      break;
    }
  }
  return response;
}

/// Submits every pooled request to a batched service and diffs each
/// response against the serial oracle. Returns the mismatch count.
size_t EquivalenceCheck(NetworkFile* file,
                        const std::vector<serve::ServeRequest>& pool) {
  std::vector<serve::ServeResponse> expected;
  expected.reserve(pool.size());
  {
    auto session = file->OpenSession();
    for (const serve::ServeRequest& request : pool) {
      expected.push_back(Oracle(session.get(), request));
    }
  }
  // The whole pool is submitted at once: lift the admission bounds so
  // every request executes (this phase checks answers, not shedding).
  serve::QueryServiceOptions options = ServiceOptions(/*batched=*/true);
  options.max_queue_depth = pool.size() + 1;
  serve::QueryService service(file, options);
  std::vector<serve::ServeTicketPtr> tickets;
  tickets.reserve(pool.size());
  for (const serve::ServeRequest& request : pool) {
    tickets.push_back(service.Submit(request));
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const serve::ServeResponse& got = tickets[i]->Wait();
    const serve::ServeResponse& want = expected[i];
    if (got.status.code() != want.status.code() || got.cost != want.cost ||
        got.num_edges != want.num_edges || got.path != want.path) {
      if (++mismatches <= 5) {
        std::fprintf(stderr,
                     "equivalence mismatch at request %zu (%s): "
                     "cost %.6f vs %.6f, edges %llu vs %llu\n",
                     i, serve::ServeOpName(pool[i].op), got.cost, want.cost,
                     static_cast<unsigned long long>(got.num_edges),
                     static_cast<unsigned long long>(want.num_edges));
      }
    }
  }
  service.Shutdown(/*drain=*/true);
  return mismatches;
}

int Run() {
  const uint32_t disk_lat_us =
      static_cast<uint32_t>(EnvU64("CCAM_BENCH_DISK_LAT_US", 100));
  const double duration_sec =
      static_cast<double>(EnvU64("CCAM_SERVE_DURATION_MS", 1500)) * 1e-3;
  const double offered_qps =
      static_cast<double>(EnvU64("CCAM_SERVE_QPS", 48000));
  const bool skip_gate = EnvU64("CCAM_SERVE_SKIP_GATE", 0) != 0;
  const uint64_t deadline_budget_us = EnvU64("CCAM_SERVE_DEADLINE_US", 0);

  // ~3.5k-node road map, CCAM-S image (created once, reopened per phase
  // set so the pool capacity and overlay are fresh).
  RoadMapOptions gen;
  gen.rows = 64;
  gen.cols = 64;
  gen.nodes_to_remove = 64 / 4;
  gen.seed = 1064;
  Network net = GenerateRoadMap(gen);
  {
    AccessMethodOptions options;
    options.page_size = 1024;
    auto am = MakeMethod(Method::kCcamS, options);
    if (!am->Create(net).ok() || !am->SaveImage(kImagePath).ok()) {
      std::fprintf(stderr, "serve_load: create failed\n");
      return 1;
    }
  }
  auto file = OpenFile(disk_lat_us);
  if (!file) {
    std::fprintf(stderr, "serve_load: open failed\n");
    return 1;
  }
  std::printf(
      "Serve load: %zu nodes / %zu edges, CCAM-S, %zu-page pool, "
      "%d workers, disk read latency %u us\n\n",
      net.NumNodes(), net.NumEdges(), kPoolPages, kWorkers, disk_lat_us);

  serve::LoadgenOptions load;
  load.tenants = 8;
  load.users = 2000000;
  load.zipf_theta = 1.1;
  load.route_hops = 5;
  load.offered_qps = offered_qps;
  load.duration_sec = duration_sec;
  load.pool_size = 4096;
  std::vector<serve::ServeRequest> pool =
      serve::BuildRequestPool(file.get(), load);
  if (pool.empty()) {
    std::fprintf(stderr, "serve_load: empty request pool\n");
    return 1;
  }

  BenchJsonWriter json("serve_load");
  TablePrinter table({"phase", "mode", "qps", "p50 us", "p95 us", "p99 us",
                      "reject rate", "occupancy", "reads/query",
                      "hit rate", "conserved"});
  auto emit = [&](const char* phase, const char* mode,
                  const serve::LoadReport& r) {
    const double reads_per_query =
        r.completed == 0 ? 0.0
                         : static_cast<double>(r.disk_reads) /
                               static_cast<double>(r.completed);
    table.AddRow({phase, mode, Fmt(r.qps, 0), std::to_string(r.p50_us),
                  std::to_string(r.p95_us), std::to_string(r.p99_us),
                  Fmt(r.reject_rate, 3), Fmt(r.mean_batch_occupancy, 2),
                  Fmt(reads_per_query, 3), Fmt(r.hit_rate, 3),
                  r.conserved ? "yes" : "NO"});
    json.AddRecord(phase,
                   {{"mode", mode},
                    {"workers", std::to_string(kWorkers)},
                    {"offered_qps", Fmt(offered_qps, 0)},
                    {"qps", Fmt(r.qps, 1)},
                    {"p50_us", std::to_string(r.p50_us)},
                    {"p95_us", std::to_string(r.p95_us)},
                    {"p99_us", std::to_string(r.p99_us)},
                    {"reject_rate", Fmt(r.reject_rate, 4)},
                    {"batch_occupancy", Fmt(r.mean_batch_occupancy, 3)},
                    {"batched_rate", Fmt(r.batched_fraction, 4)},
                    {"reads_per_query", Fmt(reads_per_query, 4)},
                    {"hit_rate", Fmt(r.hit_rate, 4)},
                    {"conserved", r.conserved ? "true" : "false"}});
  };

  // --- Saturation: capacity batched vs unbatched -------------------------
  serve::LoadReport unbatched = RunPhase(file.get(), pool, false, load);
  serve::LoadReport batched = RunPhase(file.get(), pool, true, load);
  emit("saturation", "unbatched", unbatched);
  emit("saturation", "batched", batched);

  // --- Low load: batching must not tax p99 when idle ---------------------
  serve::LoadgenOptions low = load;
  low.offered_qps = 200.0;
  serve::LoadReport low_unbatched = RunPhase(file.get(), pool, false, low);
  serve::LoadReport low_batched = RunPhase(file.get(), pool, true, low);
  emit("low_load", "unbatched", low_unbatched);
  emit("low_load", "batched", low_batched);

  // --- Deadline pressure (opt-in): saturation rate, every request with a
  // submit+budget deadline. Expired requests are shed at admission or
  // dequeue rather than executed, so capacity is spent only on traffic
  // that can still make it. Off by default: the standard BENCH json must
  // stay bit-identical in its deterministic fields.
  if (deadline_budget_us != 0) {
    serve::LoadgenOptions pressured = load;
    pressured.deadline_budget_us = deadline_budget_us;
    serve::LoadReport deadline = RunPhase(file.get(), pool, true, pressured);
    emit("deadline", "batched", deadline);
    const double miss_rate =
        deadline.submitted == 0
            ? 0.0
            : static_cast<double>(deadline.deadline_failures) /
                  static_cast<double>(deadline.submitted);
    std::printf("deadline phase: budget %llu us, %llu missed of %llu "
                "(%.1f%%)\n",
                static_cast<unsigned long long>(deadline_budget_us),
                static_cast<unsigned long long>(deadline.deadline_failures),
                static_cast<unsigned long long>(deadline.submitted),
                miss_rate * 100.0);
    json.AddRecord("deadline_pressure",
                   {{"budget_us", std::to_string(deadline_budget_us)},
                    {"deadline_failures",
                     std::to_string(deadline.deadline_failures)},
                    {"miss_rate", Fmt(miss_rate, 4)}});
  }

  table.Print();

  const double speedup =
      unbatched.qps > 0 ? batched.qps / unbatched.qps : 0.0;
  const double unbatched_rpq =
      unbatched.completed == 0 ? 0.0
                               : static_cast<double>(unbatched.disk_reads) /
                                     static_cast<double>(unbatched.completed);
  const double batched_rpq =
      batched.completed == 0 ? 0.0
                             : static_cast<double>(batched.disk_reads) /
                                   static_cast<double>(batched.completed);
  const double read_reduction =
      unbatched_rpq > 0 ? 1.0 - batched_rpq / unbatched_rpq : 0.0;
  std::printf(
      "\nbatched vs unbatched: %.2fx qps, %.1f%% fewer disk reads per "
      "query; low-load p99 %llu us (batched) vs %llu us (unbatched)\n",
      speedup, read_reduction * 100.0,
      static_cast<unsigned long long>(low_batched.p99_us),
      static_cast<unsigned long long>(low_unbatched.p99_us));
  json.AddRecord("summary",
                 {{"qps_speedup", Fmt(speedup, 3)},
                  {"read_reduction_rate", Fmt(read_reduction, 4)},
                  {"low_load_p99_batched_us",
                   std::to_string(low_batched.p99_us)},
                  {"low_load_p99_unbatched_us",
                   std::to_string(low_unbatched.p99_us)}});

  // --- Equivalence oracle ------------------------------------------------
  size_t mismatches = EquivalenceCheck(file.get(), pool);
  std::printf("equivalence: %zu mismatches over %zu requests\n", mismatches,
              pool.size());

  // --- Gates -------------------------------------------------------------
  int failures = 0;
  if (mismatches != 0) {
    std::fprintf(stderr, "serve_load: FAIL equivalence (%zu mismatches)\n",
                 mismatches);
    ++failures;
  }
  for (const serve::LoadReport* r :
       {&unbatched, &batched, &low_unbatched, &low_batched}) {
    if (r->qps <= 0.0 || r->completed == 0) {
      std::fprintf(stderr, "serve_load: FAIL zero throughput in a phase\n");
      ++failures;
    }
    if (!r->conserved) {
      std::fprintf(stderr,
                   "serve_load: FAIL conservation (session reads %llu != "
                   "disk reads %llu)\n",
                   static_cast<unsigned long long>(r->session_reads),
                   static_cast<unsigned long long>(r->disk_reads));
      ++failures;
    }
  }
  if (!skip_gate) {
    if (speedup < 1.5 && read_reduction < 0.25) {
      std::fprintf(stderr,
                   "serve_load: FAIL batching gate (%.2fx qps, %.1f%% read "
                   "reduction; need >= 1.5x or >= 25%%)\n",
                   speedup, read_reduction * 100.0);
      ++failures;
    }
    // Bounded-window contract: at low load batching may not tax p99 by
    // more than 10% (plus a small absolute floor against timer jitter).
    const double p99_limit =
        static_cast<double>(low_unbatched.p99_us) * 1.10 + 200.0;
    if (static_cast<double>(low_batched.p99_us) > p99_limit) {
      std::fprintf(stderr,
                   "serve_load: FAIL low-load p99 (batched %llu us > limit "
                   "%.0f us)\n",
                   static_cast<unsigned long long>(low_batched.p99_us),
                   p99_limit);
      ++failures;
    }
  }
  std::remove(kImagePath);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace ccam

int main() { return ccam::bench::Run(); }
