// Query-serving layer tests: DRR scheduler semantics, token-bucket
// admission, the batched-vs-unbatched equivalence oracle (with exact
// per-session I/O conservation), anti-starvation under a flooding
// tenant, and the overload + shutdown-cancellation hammer that
// scripts/check_tsan.sh runs under ThreadSanitizer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ccam.h"
#include "src/core/read_session.h"
#include "src/graph/generator.h"
#include "src/query/aggregate.h"
#include "src/query/hierarchy.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"
#include "src/serve/admission.h"
#include "src/serve/loadgen.h"
#include "src/serve/query_service.h"
#include "src/serve/scheduler.h"
#include "src/storage/snapshot_manager.h"

namespace ccam {
namespace {

using serve::AdmissionController;
using serve::DrrScheduler;
using serve::LoadgenOptions;
using serve::QueryService;
using serve::QueryServiceOptions;
using serve::QueuedRequest;
using serve::ServeOp;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeTicketPtr;
using serve::TokenBucket;

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

/// Options of a snapshot store over the same pages as MakeFile(net, 1024,
/// 16, false), in a fresh per-process directory.
SnapshotOptions StoreOptions(const std::string& leaf) {
  SnapshotOptions sopt;
  sopt.am.page_size = 1024;
  sopt.am.buffer_pool_pages = 16;
  sopt.am.num_threads = 1;
  const char* tmp = std::getenv("TMPDIR");
  sopt.dir = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + leaf + "_" +
             std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(sopt.dir, ec);
  return sopt;
}

QueuedRequest MakeQueued(uint32_t tenant, PageId region) {
  QueuedRequest item;
  item.request.tenant = tenant;
  item.request.route.nodes = {0};
  item.region = region;
  item.ticket = std::make_shared<serve::ServeTicket>();
  return item;
}

// --- DRR scheduler -------------------------------------------------------

TEST(DrrSchedulerTest, BatchesShareOneRegionAndConserveDepth) {
  DrrScheduler sched(/*quantum=*/8);
  for (int i = 0; i < 3; ++i) sched.Enqueue(MakeQueued(1, 10));
  for (int i = 0; i < 2; ++i) sched.Enqueue(MakeQueued(2, 10));
  sched.Enqueue(MakeQueued(3, 20));
  EXPECT_EQ(sched.depth(), 6u);

  std::vector<QueuedRequest> batch;
  EXPECT_EQ(sched.PopBatch(16, &batch), 5u);  // all region-10 work
  for (const QueuedRequest& item : batch) EXPECT_EQ(item.region, 10u);
  EXPECT_EQ(sched.depth(), 1u);

  batch.clear();
  EXPECT_EQ(sched.PopBatch(16, &batch), 1u);
  EXPECT_EQ(batch.front().region, 20u);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.PopBatch(16, &batch), 0u);  // empty pop leaves it alone
  EXPECT_EQ(batch.size(), 1u);
}

TEST(DrrSchedulerTest, RoundRobinAlternatesTenantsAcrossRegions) {
  DrrScheduler sched(/*quantum=*/1);
  // Two tenants, disjoint regions: turns must alternate.
  for (int i = 0; i < 3; ++i) sched.Enqueue(MakeQueued(1, 100));
  for (int i = 0; i < 3; ++i) sched.Enqueue(MakeQueued(2, 200));
  std::vector<uint32_t> order;
  std::vector<QueuedRequest> batch;
  while (sched.PopBatch(1, &batch) > 0) {
    order.push_back(batch.back().request.tenant);
    batch.clear();
  }
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 2, 1, 2, 1, 2}));
}

TEST(DrrSchedulerTest, CrossTenantBatchingChargesTheOwner) {
  DrrScheduler sched(/*quantum=*/2);
  // Tenant 2's region-10 work is batched into tenant 1's turn; tenant 2
  // then owes deficit and tenant 3 gets served before it.
  sched.Enqueue(MakeQueued(1, 10));
  for (int i = 0; i < 4; ++i) sched.Enqueue(MakeQueued(2, 10));
  sched.Enqueue(MakeQueued(2, 30));
  sched.Enqueue(MakeQueued(3, 40));
  std::vector<QueuedRequest> batch;
  EXPECT_EQ(sched.PopBatch(5, &batch), 5u);  // 1's head + 4 of tenant 2
  batch.clear();
  ASSERT_EQ(sched.PopBatch(1, &batch), 1u);
  EXPECT_EQ(batch.front().request.tenant, 3u);  // tenant 2 is in debt
  batch.clear();
  ASSERT_EQ(sched.PopBatch(1, &batch), 1u);
  EXPECT_EQ(batch.front().request.tenant, 2u);  // debt paid off, served
  EXPECT_TRUE(sched.empty());
}

// --- Admission control ---------------------------------------------------

TEST(TokenBucketTest, RefillsAtRateUpToBurst) {
  TokenBucket bucket(/*rate=*/10.0, /*burst=*/5.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));          // burst exhausted
  EXPECT_FALSE(bucket.TryAcquire(50000));      // +0.5 tokens: still < 1
  EXPECT_TRUE(bucket.TryAcquire(100000));      // +1.0 token at 100 ms
  EXPECT_FALSE(bucket.TryAcquire(100000));
  // A long idle period caps at burst, not unbounded credit.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(10000000));
  EXPECT_FALSE(bucket.TryAcquire(10000000));
}

TEST(TokenBucketTest, FractionalAccrualIsNeverTruncatedOverTenThousandTicks) {
  // Accrual regression: an awkward rate polled at an awkward interval, so
  // every refill leaves a fractional remainder. The integer ledger carries
  // the remainder instead of truncating it, keeping the admitted count
  // within 1% of configured-rate * elapsed (here it is exact up to the
  // final partial token).
  const double rate = 7.3;
  const double burst = 2.0;
  TokenBucket bucket(rate, burst);
  // Drain the burst first so the bucket is never full mid-run (a full
  // bucket legitimately forfeits accrual; that is policy, not loss).
  uint64_t admitted = 0;
  while (bucket.TryAcquire(0)) ++admitted;
  EXPECT_EQ(admitted, 2u);
  const uint64_t tick_us = 1370;  // 0.010001 tokens per tick
  const int kTicks = 10000;
  for (int i = 1; i <= kTicks; ++i) {
    if (bucket.TryAcquire(static_cast<uint64_t>(i) * tick_us)) ++admitted;
  }
  const double elapsed_s = kTicks * tick_us / 1e6;  // 13.7 s
  const double expected = burst + rate * elapsed_s;  // 102.01
  EXPECT_NEAR(static_cast<double>(admitted), expected, 0.01 * rate * elapsed_s)
      << "admitted rate drifted more than 1% from configured";
  EXPECT_EQ(admitted, 102u);  // exact: the carry loses nothing
}

TEST(TokenBucketTest, SubUnitBurstNeverStarves) {
  // Regression: a burst below one token used to cap the bucket beneath
  // the cost of a single request, so the balance could never reach 1 and
  // a positive-rate tenant was starved forever. Capacity is now floored
  // at one token: one initial admit, then exactly the configured rate.
  TokenBucket bucket(/*rate=*/0.5, /*burst=*/0.5);
  uint64_t admitted = 0;
  for (int i = 0; i <= 1000; ++i) {  // 100 s in 100 ms ticks
    if (bucket.TryAcquire(static_cast<uint64_t>(i) * 100000)) ++admitted;
  }
  EXPECT_EQ(admitted, 51u);  // 1 (floored burst) + 0.5/s * 100 s
}

TEST(AdmissionControllerTest, SubQpsTenantIsAdmittedAtItsConfiguredRate) {
  // Controller-level view of the same regression: tenant_burst defaults
  // to tenant_rate, so every sub-1-qps tenant used to inherit a
  // sub-unit burst and never pass the rate gate.
  AdmissionController::Options options;
  options.tenant_rate = 0.25;
  AdmissionController admission(options);
  AdmissionController::RejectGate gate;
  uint64_t admitted = 0;
  for (int i = 0; i <= 1200; ++i) {  // 120 s in 100 ms ticks
    if (admission.Admit(7, static_cast<uint64_t>(i) * 100000, &gate).ok()) {
      ++admitted;
      admission.OnEnqueue(7);
      admission.OnDequeue(7);
    }
  }
  EXPECT_EQ(admitted, 31u);  // 1 (floored burst) + 0.25/s * 120 s
}

TEST(AdmissionControllerTest, ThreeGatesRejectTyped) {
  AdmissionController::Options options;
  options.max_queue_depth = 4;
  options.max_tenant_depth = 2;
  options.tenant_rate = 10.0;
  options.tenant_burst = 100.0;
  AdmissionController admission(options);

  AdmissionController::RejectGate gate;
  EXPECT_TRUE(admission.Admit(1, 0, &gate).ok());
  admission.OnEnqueue(1);
  EXPECT_TRUE(admission.Admit(1, 0, &gate).ok());
  admission.OnEnqueue(1);
  Status s = admission.Admit(1, 0, &gate);  // tenant depth gate
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_EQ(gate, AdmissionController::RejectGate::kTenantDepth);

  EXPECT_TRUE(admission.Admit(2, 0, &gate).ok());
  admission.OnEnqueue(2);
  EXPECT_TRUE(admission.Admit(3, 0, &gate).ok());
  admission.OnEnqueue(3);
  s = admission.Admit(4, 0, &gate);  // global depth gate
  EXPECT_TRUE(s.IsOverloaded());
  EXPECT_EQ(gate, AdmissionController::RejectGate::kQueueFull);

  admission.OnDequeue(1);
  admission.OnDequeue(1);
  admission.OnDequeue(2);
  admission.OnDequeue(3);
  // Tenant 1 already consumed tokens above; drain the rest of the burst.
  int admitted = 0;
  while (admission.Admit(1, 0, &gate).ok()) ++admitted;
  EXPECT_EQ(gate, AdmissionController::RejectGate::kRateLimit);
  EXPECT_GT(admitted, 0);
}

// --- Batched vs unbatched equivalence oracle -----------------------------

serve::ServeResponse Oracle(ReadSession* session,
                            const ServeRequest& request) {
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
    case ServeOp::kAStar: {
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
    case ServeOp::kHierarchy: {
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
    case ServeOp::kAggregate: {
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

TEST(QueryServiceTest, BatchedMatchesSerialOracleAndConservesIo) {
  Network net = TestNetwork();
  for (size_t page_size : {512u, 2048u}) {
    SCOPED_TRACE("page_size=" + std::to_string(page_size));
    auto file = MakeFile(net, page_size, /*pool_pages=*/16, /*overlay=*/true);
    ASSERT_TRUE(file->HasHierarchy());

    LoadgenOptions gen;
    gen.tenants = 6;
    gen.pool_size = 600;  // 500+ mixed requests, all four operations
    gen.zipf_theta = 0.8;
    gen.seed = 7 + page_size;
    std::vector<ServeRequest> pool =
        serve::BuildRequestPool(file.get(), gen);
    ASSERT_EQ(pool.size(), 600u);

    // Serial oracle on a plain session, before the service exists.
    std::vector<ServeResponse> expected;
    {
      auto session = file->OpenSession();
      for (const ServeRequest& request : pool) {
        expected.push_back(Oracle(session.get(), request));
      }
    }

    const IoStats disk_before = file->DataIoStats();
    const IoStats hier_before = file->HierarchyIoStats();

    QueryServiceOptions options;
    options.num_workers = 8;
    options.max_queue_depth = 100000;  // nothing may be shed in this test
    options.max_tenant_depth = 100000;
    QueryService service(file.get(), options);

    // Concurrent submitters, so batches genuinely mix tenants/threads.
    constexpr int kSubmitters = 4;
    std::vector<std::vector<ServeTicketPtr>> tickets(kSubmitters);
    {
      std::vector<std::thread> submitters;
      for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
          for (size_t i = t; i < pool.size(); i += kSubmitters) {
            tickets[t].push_back(service.Submit(pool[i]));
          }
        });
      }
      for (auto& thread : submitters) thread.join();
    }
    size_t mismatches = 0;
    for (int t = 0; t < kSubmitters; ++t) {
      size_t k = 0;
      for (size_t i = t; i < pool.size(); i += kSubmitters, ++k) {
        const ServeResponse& got = tickets[t][k]->Wait();
        const ServeResponse& want = expected[i];
        if (got.status.code() != want.status.code() ||
            got.cost != want.cost || got.num_edges != want.num_edges ||
            got.path != want.path) {
          ++mismatches;
        }
        EXPECT_GE(got.batch_size, 1u);
      }
    }
    EXPECT_EQ(mismatches, 0u);

    service.Shutdown(/*drain=*/true);
    QueryService::Stats stats = service.GetStats();
    EXPECT_EQ(stats.submitted, pool.size());
    EXPECT_EQ(stats.completed, pool.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_GT(stats.batched_requests, 0u);  // batching actually happened

    // Conservation: the workers' per-session counters sum exactly to the
    // file's global disk-read deltas, data and overlay alike.
    EXPECT_EQ(service.TotalSessionIoStats().reads,
              (file->DataIoStats() - disk_before).reads);
    EXPECT_EQ(service.TotalSessionHierarchyIoStats().reads,
              (file->HierarchyIoStats() - hier_before).reads);
  }
}

// Snapshot mode: each worker's ReadSession pins a store version. Results
// match a serial oracle on a pinned session, mutation overlay included; a
// pinned version has no hierarchy, so every CH request gets a typed
// NotSupported; and the workers' reads sum to the version's disk reads.
TEST(QueryServiceTest, SnapshotModeMatchesOracleAndRejectsHierarchy) {
  Network net = TestNetwork();
  SnapshotOptions sopt = StoreOptions("ccam_serve_snapshot_store");
  auto created = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<SnapshotManager> store = std::move(*created);

  std::unique_ptr<ReadSession> probe = store->OpenSession();
  NetworkFile* base = probe->file();
  LoadgenOptions gen;
  gen.tenants = 4;
  gen.pool_size = 400;
  gen.seed = 17;
  std::vector<ServeRequest> pool = serve::BuildRequestPool(base, gen);
  ASSERT_EQ(pool.size(), 400u);
  // The loadgen draws no CH requests without an overlay; ask for the
  // hierarchy on every A* pair too.
  for (size_t i = 0; i < 400; ++i) {
    if (pool[i].op != ServeOp::kAStar) continue;
    pool.push_back(pool[i]);
    pool.back().op = ServeOp::kHierarchy;
  }

  // Re-cost the first route evaluation's first edge: requests over it now
  // read the endpoints' records from the version's overlay.
  auto first = std::find_if(pool.begin(), pool.end(), [](const auto& r) {
    return r.op == ServeOp::kRouteEval && r.route.nodes.size() >= 2;
  });
  ASSERT_NE(first, pool.end());
  const NodeId u = first->route.nodes[0];
  const NodeId v = first->route.nodes[1];
  float cost = 0.0f;
  for (const AdjEntry& e : net.node(u).succ) {
    if (e.node == v) cost = e.cost;
  }
  ASSERT_TRUE(store->DeleteEdge(u, v).ok());
  ASSERT_TRUE(store->InsertEdge(u, v, cost + 7.0f).ok());

  std::vector<ServeResponse> expected;
  size_t hierarchy = 0;
  {
    std::unique_ptr<ReadSession> session = store->OpenSession();
    EXPECT_FALSE(session->HasHierarchy());
    for (const ServeRequest& request : pool) {
      expected.push_back(Oracle(session.get(), request));
      if (request.op == ServeOp::kHierarchy) {
        ++hierarchy;
        EXPECT_TRUE(expected.back().status.IsNotSupported());
      }
    }
  }
  ASSERT_GT(hierarchy, 0u);
  const IoStats disk_before = base->DataIoStats();

  // The service (and its pinned worker sessions) must go before the store.
  {
    QueryServiceOptions options;
    options.num_workers = 4;
    options.max_queue_depth = 100000;
    options.max_tenant_depth = 100000;
    QueryService service(store.get(), options);
    std::vector<ServeTicketPtr> tickets;
    for (const ServeRequest& request : pool) {
      tickets.push_back(service.Submit(request));
    }
    size_t mismatches = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      const ServeResponse& got = tickets[i]->Wait();
      const ServeResponse& want = expected[i];
      if (got.status.code() != want.status.code() || got.cost != want.cost ||
          got.num_edges != want.num_edges || got.path != want.path) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    service.Shutdown(/*drain=*/true);
    EXPECT_EQ(service.GetStats().completed, pool.size());
    EXPECT_EQ(service.TotalSessionIoStats().reads,
              (base->DataIoStats() - disk_before).reads);
    EXPECT_EQ(service.TotalSessionHierarchyIoStats().reads, 0u);
  }

  probe.reset();
  store.reset();
  std::error_code ec;
  std::filesystem::remove_all(sopt.dir, ec);
}

// --- Fairness: a flooding tenant cannot starve a polite one --------------

TEST(QueryServiceTest, FloodingTenantCannotStarvePoliteTenant) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  file->disk()->SetSimulatedReadLatencyMicros(100);

  LoadgenOptions gen;
  gen.tenants = 1;  // tenant ids are overwritten below
  gen.pool_size = 256;
  gen.seed = 99;
  std::vector<ServeRequest> pool = serve::BuildRequestPool(file.get(), gen);
  ASSERT_FALSE(pool.empty());

  QueryServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 256;
  options.max_tenant_depth = 64;  // the hog's allowance
  QueryService service(file.get(), options);

  std::atomic<bool> hog_done{false};
  std::vector<ServeTicketPtr> hog_tickets;
  std::thread hog([&] {
    // Tenant 7 floods: 4000 submissions as fast as possible.
    for (int i = 0; i < 4000; ++i) {
      ServeRequest request = pool[i % pool.size()];
      request.tenant = 7;
      hog_tickets.push_back(service.Submit(std::move(request)));
    }
    hog_done.store(true);
  });

  // Tenant 1 is polite: few requests, gently paced.
  uint64_t worst_us = 0;
  uint64_t polite_rejected = 0;
  for (int i = 0; i < 50; ++i) {
    ServeRequest request = pool[(i * 5) % pool.size()];
    request.tenant = 1;
    auto t0 = std::chrono::steady_clock::now();
    ServeTicketPtr ticket = service.Submit(std::move(request));
    const ServeResponse& response = ticket->Wait();
    uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (response.status.IsOverloaded()) {
      ++polite_rejected;
    } else if (us > worst_us) {
      worst_us = us;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  hog.join();
  uint64_t hog_rejected = 0;
  for (const ServeTicketPtr& ticket : hog_tickets) {
    if (ticket->Wait().status.IsOverloaded()) ++hog_rejected;
  }
  service.Shutdown(/*drain=*/true);

  // The hog hit its per-tenant allowance (it was shed), while the polite
  // tenant was never rejected and never waited behind the hog's backlog:
  // its worst observed end-to-end latency stays far under the time the
  // hog's 64-deep allowance would take to drain serially ahead of it.
  EXPECT_GT(hog_rejected, 0u);
  EXPECT_EQ(polite_rejected, 0u);
  EXPECT_LT(worst_us, 250000u);  // 250 ms; generous for CI machines
}

// --- Overload + cancellation during shutdown (TSan hammer) ---------------

TEST(QueryServiceTest, OverloadAndShutdownCancellationHammer) {
  Network net = TestNetwork();
  auto file = MakeFile(net, 1024, /*pool_pages=*/16, /*overlay=*/false);
  file->disk()->SetSimulatedReadLatencyMicros(50);

  LoadgenOptions gen;
  gen.tenants = 4;
  gen.pool_size = 128;
  gen.seed = 31;
  std::vector<ServeRequest> pool = serve::BuildRequestPool(file.get(), gen);
  ASSERT_FALSE(pool.empty());

  QueryServiceOptions options;
  options.num_workers = 8;
  options.max_queue_depth = 64;  // tiny: force Overloaded rejections
  QueryService service(file.get(), options);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<ServeTicketPtr>> tickets(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ServeRequest request = pool[(t * kPerThread + i) % pool.size()];
        request.tenant = static_cast<uint32_t>(t);
        tickets[t].push_back(service.Submit(std::move(request)));
      }
    });
  }
  // Cancel mid-stream: queued-but-unstarted work completes Overloaded.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Shutdown(/*drain=*/false);
  for (auto& thread : submitters) thread.join();

  uint64_t done = 0, overloaded = 0, ok = 0;
  for (const auto& per_thread : tickets) {
    for (const ServeTicketPtr& ticket : per_thread) {
      const ServeResponse& response = ticket->Wait();
      ++done;
      if (response.status.IsOverloaded()) {
        ++overloaded;
      } else if (response.status.ok()) {
        ++ok;
      }
    }
  }
  // Every ticket completes exactly once, and the books balance.
  EXPECT_EQ(done, static_cast<uint64_t>(kSubmitters * kPerThread));
  EXPECT_EQ(done, ok + overloaded);
  QueryService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.submitted, done);
  EXPECT_EQ(stats.completed + stats.rejected, done);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_GT(overloaded, 0u);  // the tiny queue really shed load
}

// --- One-session-per-thread debug assertion ------------------------------

#ifndef NDEBUG
/// Runs the thread-contract cases against both kinds of ReadSession: over
/// a plain file (false) and pinned to a snapshot version (true).
class ReadSessionDeathTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    net_ = TestNetwork();
    if (!GetParam()) {
      file_ = MakeFile(net_, 1024, /*pool_pages=*/16, /*overlay=*/false);
      session_ = file_->OpenSession();
      return;
    }
    SnapshotOptions sopt = StoreOptions("ccam_serve_contract_store");
    auto store = SnapshotManager::Create(sopt, net_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    session_ = store_->OpenSession();
    // The pinned version lives in memory: dropping the files now leaves
    // nothing behind, even when a death-test child aborts.
    std::error_code ec;
    std::filesystem::remove_all(sopt.dir, ec);
  }

  NodeId AnyNode() const { return session_->PageMap().begin()->first; }

  Network net_;
  std::unique_ptr<Ccam> file_;
  std::unique_ptr<SnapshotManager> store_;
  std::unique_ptr<ReadSession> session_;  // destroyed first
};

TEST_P(ReadSessionDeathTest, SecondThreadTripsTheContractAssert) {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else  // GoogleTest before 1.12
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  NodeId node = AnyNode();
  ASSERT_TRUE(session_->Find(node).ok());  // binds to this thread
  EXPECT_DEATH(
      {
        std::thread other([&] { (void)session_->Find(node); });
        other.join();
      },
      "one session per thread");
}

TEST_P(ReadSessionDeathTest, RebindToCurrentThreadMovesTheBinding) {
  NodeId node = AnyNode();
  ASSERT_TRUE(session_->Find(node).ok());
  std::thread worker([&] {
    session_->RebindToCurrentThread();  // deliberate single-threaded handoff
    EXPECT_TRUE(session_->Find(node).ok());
  });
  worker.join();
}

INSTANTIATE_TEST_SUITE_P(FileAndSnapshot, ReadSessionDeathTest,
                         ::testing::Bool());
#endif  // NDEBUG

}  // namespace
}  // namespace ccam
