// Serve-layer chaos battery: a live QueryService at 8 workers under
// deadline pressure (50% of requests carry tight or already-expired
// deadlines) while the data disk injects corruption and short-read faults
// and one page carries genuine platter damage. The invariants are the
// request-lifecycle contract:
//
//   * no hang, no crash — every ticket completes (the ctest TIMEOUT is
//     the hang detector);
//   * every outcome is TYPED — ok, Overloaded, DeadlineExceeded,
//     Corruption, Quarantined, ShortRead or IOError, never anything else;
//   * quarantined pages never reach results — every OK response is
//     bit-identical to the pre-fault serial oracle;
//   * accounting survives chaos — completed + rejected == submitted, and
//     the workers' session IoStats still equal the file's disk-read delta
//     (failed read attempts count in neither).
//
// Plus a circuit-breaker trip/recovery section and cooperative-
// cancellation checks at the session level. Run by scripts/check_chaos.sh
// and under ThreadSanitizer by scripts/check_tsan.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/metrics.h"
#include "src/common/request_context.h"
#include "src/core/ccam.h"
#include "src/core/read_session.h"
#include "src/graph/generator.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/serve/loadgen.h"
#include "src/serve/query_service.h"

namespace ccam {
namespace {

using serve::LoadgenOptions;
using serve::QueryService;
using serve::QueryServiceOptions;
using serve::ServeOp;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeTicketPtr;

Network TestNetwork() {
  RoadMapOptions gen;
  gen.rows = 24;
  gen.cols = 24;
  gen.nodes_to_remove = 6;
  gen.seed = 2024;
  return GenerateRoadMap(gen);
}

std::unique_ptr<Ccam> MakeFile(const Network& net, size_t page_size,
                               size_t pool_pages, bool overlay) {
  AccessMethodOptions options;
  options.page_size = page_size;
  options.buffer_pool_pages = pool_pages;
  if (overlay) options.hierarchy_overlay = true;
  auto am = std::make_unique<Ccam>(options, CcamCreateMode::kStatic);
  EXPECT_TRUE(am->Create(net).ok());
  return am;
}

// The serial oracle (same shape as serve_test.cc's): ground truth computed
// on a healthy file before any fault is armed.
ServeResponse Oracle(ReadSession* session, const ServeRequest& request) {
  ServeResponse response;
  switch (request.op) {
    case ServeOp::kRouteEval: {
      auto r = EvaluateRoute(session, request.route);
      if (r.ok()) {
        response.cost = r.value().total_cost;
        response.num_edges = r.value().num_edges;
      } else {
        response.status = r.status();
      }
      break;
    }
    case ServeOp::kAStar:
    case ServeOp::kHierarchy: {
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
    default:
      break;
  }
  return response;
}

// A lifecycle-era outcome: every chaos ticket must land on one of these.
bool IsTypedChaosOutcome(const Status& s) {
  return s.ok() || s.IsOverloaded() || s.IsDeadlineExceeded() ||
         s.IsCancelled() || s.IsCorruption() || s.IsQuarantined() ||
         s.IsShortRead() || s.IsIOError();
}

// --- The battery ---------------------------------------------------------

TEST(ChaosServeTest, DeadlinePressureWithFaultsKeepsEveryInvariant) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  MetricsRegistry metrics;
  file->SetMetrics(&metrics);

  // Route-eval and A* only: both run entirely on the data disk, where the
  // chaos schedules are armed (aggregates and CH would pass through the
  // same session checks but dilute the fault pressure).
  LoadgenOptions gen;
  gen.tenants = 6;
  gen.pool_size = 400;
  gen.zipf_theta = 0.8;
  gen.w_route_eval = 0.6;
  gen.w_astar = 0.4;
  gen.w_aggregate = 0.0;
  gen.w_hierarchy = 0.0;
  gen.seed = 4242;
  std::vector<ServeRequest> pool = serve::BuildRequestPool(file.get(), gen);
  ASSERT_EQ(pool.size(), 400u);

  // Ground truth BEFORE any fault exists.
  std::vector<ServeResponse> expected;
  {
    auto session = file->OpenSession();
    for (const ServeRequest& request : pool) {
      expected.push_back(Oracle(session.get(), request));
      ASSERT_TRUE(expected.back().status.ok());
    }
  }

  // Genuine platter damage on one cold data page: a torn rewrite leaves
  // new-head/old-tail content under a stale seal, so with verification on
  // every read of it fails Corruption — deterministically, forever.
  FaultInjector faults(99);
  file->SetFaultInjector(&faults);
  ASSERT_TRUE(file->buffer_pool()->Reset().ok());  // all fetches go cold
  PageId victim = file->PageMap().begin()->second;
  {
    std::vector<char> content(1024);
    ASSERT_TRUE(file->disk()->ReadPage(victim, content.data()).ok());
    for (size_t i = 0; i < 48; ++i) {
      content[i] = static_cast<char>(~content[i]);
    }
    ASSERT_TRUE(faults.Configure("disk.write=torn:48@1").ok());
    EXPECT_FALSE(file->disk()->WritePage(victim, content.data()).ok());
    faults.Reset();
  }
  file->disk()->SetVerifyChecksums(true);
  // Plus transient chaos: every 9th read attempt returns a short frame
  // (usually rescued by the pool's bounded re-read).
  ASSERT_TRUE(faults.Configure("disk.read=short:64@every9").ok());

  const IoStats disk_before = file->DataIoStats();

  QueryServiceOptions options;
  options.num_workers = 8;
  options.max_queue_depth = 100000;  // only deadlines/faults may shed
  options.max_tenant_depth = 100000;
  options.retry_max_attempts = 3;
  options.retry_backoff_us = 50;
  options.seed = 17;
  QueryService service(file.get(), options);

  // 50% of traffic carries deadline pressure: one quarter of the pool is
  // born expired (shed at admission/dequeue), one quarter gets a tight
  // 2 ms budget; the other half is deadline-free healthy traffic.
  const int64_t now = RequestContext::NowMicros();
  std::vector<int> kind(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) kind[i] = static_cast<int>(i % 4);

  constexpr int kSubmitters = 4;
  std::vector<std::vector<ServeTicketPtr>> tickets(kSubmitters);
  {
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t i = t; i < pool.size(); i += kSubmitters) {
          ServeRequest request = pool[i];
          if (kind[i] == 1) request.deadline_us = now - 1;  // born expired
          if (kind[i] == 3) {
            request.deadline_us = RequestContext::NowMicros() + 2000;
          }
          tickets[t].push_back(service.Submit(std::move(request)));
        }
      });
    }
    for (auto& thread : submitters) thread.join();
  }

  uint64_t ok = 0, shed = 0, faulted = 0, expired_mid = 0;
  size_t mismatches = 0;
  for (int t = 0; t < kSubmitters; ++t) {
    size_t k = 0;
    for (size_t i = t; i < pool.size(); i += kSubmitters, ++k) {
      const ServeResponse& got = tickets[t][k]->Wait();
      // Invariant 1+2: every ticket completes, with a typed status.
      ASSERT_TRUE(IsTypedChaosOutcome(got.status))
          << "request " << i << ": " << got.status.ToString();
      if (got.status.ok()) {
        ++ok;
        // Invariant 3: an OK response under chaos is bit-identical to the
        // healthy serial oracle — damaged or quarantined page content can
        // never leak into a served result.
        const ServeResponse& want = expected[i];
        if (got.cost != want.cost || got.num_edges != want.num_edges ||
            got.path != want.path) {
          ++mismatches;
        }
      } else if (got.status.IsDeadlineExceeded() ||
                 got.status.IsOverloaded()) {
        (kind[i] == 1 ? shed : expired_mid) += 1;
        // Deadline-free requests must never be shed in this setup.
        EXPECT_NE(kind[i] % 2, 0) << got.status.ToString();
      } else {
        ++faulted;  // Corruption / Quarantined / ShortRead / IOError
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_GE(shed, pool.size() / 4);  // every born-expired request was shed

  service.Shutdown(/*drain=*/true);
  QueryService::Stats stats = service.GetStats();
  // Invariant 4: the books balance under chaos.
  EXPECT_EQ(stats.submitted, pool.size());
  EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
  EXPECT_GE(stats.shed_deadline, pool.size() / 4);

  // The damaged page really was contained: it sits in quarantine with the
  // original Corruption reason, and at least one later fetch fast-failed.
  EXPECT_TRUE(file->quarantine()->Contains(victim));
  EXPECT_GE(metrics.GetCounter("storage.quarantine.added")->value(), 1u);

  // Invariant 4 (conservation): failed attempts count in neither ledger,
  // successful retries count once — the sums still agree exactly.
  EXPECT_EQ(service.TotalSessionIoStats().reads,
            (file->DataIoStats() - disk_before).reads);
}

// Same battery shape, healthy disk: with deadlines on half the traffic but
// zero faults, all non-shed requests must complete OK and match the oracle.
TEST(ChaosServeTest, DeadlinePressureAloneNeverCorruptsResults) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);

  LoadgenOptions gen;
  gen.tenants = 4;
  gen.pool_size = 300;
  gen.w_aggregate = 0.0;
  gen.w_hierarchy = 0.0;
  gen.seed = 515;
  std::vector<ServeRequest> pool = serve::BuildRequestPool(file.get(), gen);

  std::vector<ServeResponse> expected;
  {
    auto session = file->OpenSession();
    for (const ServeRequest& request : pool) {
      expected.push_back(Oracle(session.get(), request));
    }
  }

  QueryServiceOptions options;
  options.num_workers = 8;
  options.max_queue_depth = 100000;
  options.max_tenant_depth = 100000;
  QueryService service(file.get(), options);

  const int64_t now = RequestContext::NowMicros();
  std::vector<ServeTicketPtr> tickets;
  for (size_t i = 0; i < pool.size(); ++i) {
    ServeRequest request = pool[i];
    if (i % 2 == 1) {
      // Tight-but-future budgets; some will be met, some shed or expire.
      request.deadline_us = now + 1000 + static_cast<int64_t>(i);
    }
    tickets.push_back(service.Submit(std::move(request)));
  }
  for (size_t i = 0; i < pool.size(); ++i) {
    const ServeResponse& got = tickets[i]->Wait();
    if (got.status.ok()) {
      EXPECT_EQ(got.cost, expected[i].cost) << i;
      EXPECT_EQ(got.num_edges, expected[i].num_edges) << i;
      EXPECT_EQ(got.path, expected[i].path) << i;
    } else {
      // The only failure mode a healthy disk allows is the deadline.
      EXPECT_TRUE(got.status.IsDeadlineExceeded()) << got.status.ToString();
      EXPECT_EQ(i % 2, 1u);  // and only deadlined traffic may fail
    }
  }
  service.Shutdown(/*drain=*/true);
  QueryService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
}

// --- Circuit breaker: trip, shed, recover --------------------------------

TEST(ChaosServeTest, BreakerTripsOnIoFailuresAndRecoversAfterCooldown) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  FaultInjector faults(7);
  file->SetFaultInjector(&faults);
  ASSERT_TRUE(file->buffer_pool()->Reset().ok());

  LoadgenOptions gen;
  gen.tenants = 1;
  gen.pool_size = 64;
  gen.w_aggregate = 0.0;
  gen.w_hierarchy = 0.0;
  gen.seed = 23;
  std::vector<ServeRequest> pool = serve::BuildRequestPool(file.get(), gen);
  ASSERT_TRUE(file->buffer_pool()->Reset().ok());  // loadgen warmed it

  QueryServiceOptions options;
  options.num_workers = 2;
  options.breaker_trip_threshold = 4;
  options.breaker_cooldown_us = 20000;  // 20 ms
  QueryService service(file.get(), options);

  // A device that fails every read: requests fail typed IOError (never
  // quarantined — transport trouble is not page damage), and after the
  // 4th consecutive failure the kIo breaker opens.
  ASSERT_TRUE(faults.Configure("disk.read=error:io@1+").ok());
  uint64_t io_failures = 0, breaker_shed = 0;
  for (int i = 0; i < 16; ++i) {
    ServeTicketPtr ticket = service.Submit(pool[i % pool.size()]);
    const ServeResponse& r = ticket->Wait();
    if (r.status.IsIOError()) ++io_failures;
    if (r.status.IsOverloaded() &&
        r.status.message().find("circuit breaker") != std::string::npos) {
      ++breaker_shed;
    }
  }
  EXPECT_GE(io_failures, 4u);   // the failures that tripped it
  EXPECT_GT(breaker_shed, 0u);  // ...and the shedding that followed
  EXPECT_EQ(file->quarantine()->size(), 0u);

  // Device heals; after the cooldown the half-open probe succeeds, the
  // breaker closes, and traffic flows again.
  faults.Reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  uint64_t recovered = 0;
  for (int i = 0; i < 16; ++i) {
    ServeTicketPtr ticket = service.Submit(pool[i % pool.size()]);
    const ServeResponse& r = ticket->Wait();
    if (r.status.ok()) ++recovered;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(recovered, 8u);

  service.Shutdown(/*drain=*/true);
  QueryService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
  EXPECT_GT(stats.shed_breaker, 0u);
}

// --- Cooperative cancellation at the session level -----------------------

TEST(ChaosServeTest, CancellationAndDeadlineUnwindTyped) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  auto session = file->OpenSession();
  std::vector<NodeId> ids;
  for (const auto& entry : file->PageMap()) ids.push_back(entry.first);
  ASSERT_GE(ids.size(), 2u);

  // A context cancelled up front stops the very next check site.
  RequestContext cancelled;
  cancelled.Cancel();
  session->SetRequestContext(&cancelled);
  auto r1 = ShortestPathAStar(session.get(), ids.front(), ids.back());
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsCancelled()) << r1.status().ToString();

  // A deadline already in the past unwinds as DeadlineExceeded.
  RequestContext expired(RequestContext::NowMicros() - 10);
  session->SetRequestContext(&expired);
  auto r2 = ShortestPathAStar(session.get(), ids.front(), ids.back());
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsDeadlineExceeded()) << r2.status().ToString();

  // Cancellation wins over an expired deadline (it is the more specific
  // "stop now" signal).
  expired.Cancel();
  Status both = expired.Check();
  EXPECT_TRUE(both.IsCancelled()) << both.ToString();

  // Detached again, the same query runs to completion.
  session->SetRequestContext(nullptr);
  auto r3 = ShortestPathAStar(session.get(), ids.front(), ids.back());
  EXPECT_TRUE(r3.ok()) << r3.status().ToString();

  // Cancel mid-flight from another thread: a long scan unwinds promptly
  // with the typed status instead of running to the end.
  RequestContext ctx;
  session->SetRequestContext(&ctx);
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ctx.Cancel();
  });
  started.store(true, std::memory_order_release);
  // Terminates because the cancel is already in flight: the next check
  // site after it lands unwinds the query.
  Status last;
  for (size_t i = 0; last.ok(); ++i) {
    auto r = ShortestPathAStar(session.get(), ids[i % ids.size()],
                               ids[(i * 7 + 3) % ids.size()]);
    last = r.status();
  }
  canceller.join();
  EXPECT_TRUE(last.IsCancelled()) << last.ToString();
  session->SetRequestContext(nullptr);
}

}  // namespace
}  // namespace ccam
