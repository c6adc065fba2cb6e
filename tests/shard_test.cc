// Differential oracle, accounting-conservation, determinism, persistence
// and concurrency tests for the sharded network file (src/shard/):
//
//  * at 1 shard the sharded file IS the unsharded file — page map, disk
//    image behavior and per-query IoStats must match bit for bit;
//  * at 2/4/8 shards every route / aggregate / spatial / shortest-path
//    result must equal the unsharded baseline's (500+ route pairs across
//    the shard counts), with the halo copies keeping every cross-cut hop
//    local;
//  * per-shard session IoStats must sum exactly to the shard disks' reads
//    (the ReadSession conservation contract, lifted over the router);
//  * the coarse split and the router must be a pure function of the input
//    (identical across runs and thread counts);
//  * 8 concurrent reader threads must keep results and the conservation
//    ledger intact (run under TSan via scripts/check_tsan.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/ccam.h"
#include "src/core/read_session.h"
#include "src/graph/generator.h"
#include "src/graph/route.h"
#include "src/query/search.h"
#include "src/query/spatial.h"
#include "src/shard/shard_query.h"
#include "src/shard/sharded_network_file.h"

namespace ccam {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

AccessMethodOptions BaseOptions() {
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  return options;
}

const Network& PaperNet() {
  static const Network* net = new Network(GenerateMinneapolisLikeMap(1995));
  return *net;
}

std::unique_ptr<Ccam> MakeBaseline(const Network& net) {
  auto am = std::make_unique<Ccam>(BaseOptions(), CcamCreateMode::kStatic);
  EXPECT_TRUE(am->Create(net).ok());
  return am;
}

std::unique_ptr<ShardedNetworkFile> MakeSharded(const Network& net,
                                                uint32_t num_shards,
                                                int num_threads = 0) {
  ShardedOptions sopts;
  sopts.num_shards = num_shards;
  sopts.am = BaseOptions();
  sopts.am.num_threads = num_threads;
  auto file = std::make_unique<ShardedNetworkFile>(sopts);
  EXPECT_TRUE(file->Create(net).ok()) << num_shards << " shards";
  return file;
}

std::vector<Route> OracleRoutes(const Network& net, int count,
                                uint64_t seed) {
  return GenerateRandomWalkRoutes(net, count, /*length=*/12, seed);
}

// --- 1-shard bit-identicality --------------------------------------------

TEST(ShardOracleTest, OneShardIsBitIdenticalToUnsharded) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto sharded = MakeSharded(net, 1);

  // Identical logical placement: composed ids collapse to local ids.
  ASSERT_EQ(baseline->PageMap().size(), sharded->PageMap().size());
  for (const auto& kv : baseline->PageMap()) {
    auto it = sharded->PageMap().find(kv.first);
    ASSERT_NE(it, sharded->PageMap().end()) << "node " << kv.first;
    EXPECT_EQ(it->second, kv.second) << "node " << kv.first;
  }
  EXPECT_EQ(baseline->NumDataPages(), sharded->NumDataPages());
  EXPECT_EQ(sharded->NumCutEdges(), 0u);
  EXPECT_EQ(sharded->TotalHaloRecords(), 0u);

  // Identical accounting, query by query: both files replay the same
  // workload from a cold pool; every per-query access count and the
  // summed IoStats must match exactly.
  auto base_session = baseline->OpenSession();
  auto shard_session = sharded->OpenSession();
  std::vector<Route> routes = OracleRoutes(net, 100, 7);
  for (const Route& route : routes) {
    auto want = EvaluateRoute(base_session.get(), route);
    auto got = EvaluateRoute(shard_session.get(), route);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->total_cost, want->total_cost);
    EXPECT_EQ(got->num_edges, want->num_edges);
    EXPECT_EQ(got->page_accesses, want->page_accesses);
  }
  IoStats want_io = base_session->DataIoStats();
  IoStats got_io = shard_session->DataIoStats();
  EXPECT_EQ(got_io.reads, want_io.reads);
  EXPECT_EQ(got_io.writes, want_io.writes);
  EXPECT_EQ(baseline->DataIoStats().reads, sharded->DataIoStats().reads);
  EXPECT_EQ(shard_session->CutCrossings(), 0u);
}

// --- Differential oracle at 2/4/8 shards ---------------------------------

TEST(ShardOracleTest, RouteResultsMatchUnshardedAcrossShardCounts) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto base_session = baseline->OpenSession();

  // 3 shard counts x 200 routes = 600 differential pairs.
  for (uint32_t shards : {2u, 4u, 8u}) {
    auto sharded = MakeSharded(net, shards);
    auto session = sharded->OpenSession();
    std::vector<Route> routes = OracleRoutes(net, 200, 1995 + shards);
    size_t multi = 0;
    for (const Route& route : routes) {
      auto want = EvaluateRoute(base_session.get(), route);
      ASSERT_TRUE(want.ok());

      // The facade session replays the identical call sequence, so even
      // the floating-point cost accumulates in the same order.
      auto facade = EvaluateRoute(session.get(), route);
      ASSERT_TRUE(facade.ok());
      EXPECT_EQ(facade->total_cost, want->total_cost);
      EXPECT_EQ(facade->num_edges, want->num_edges);

      // The stitched path sums per-segment; identical values, possibly
      // re-associated.
      auto stitched = EvaluateRouteSharded(session.get(), route);
      ASSERT_TRUE(stitched.ok());
      EXPECT_DOUBLE_EQ(stitched->eval.total_cost, want->total_cost);
      EXPECT_EQ(stitched->eval.num_edges, want->num_edges);
      EXPECT_GE(stitched->fanout, 1u);
      EXPECT_LE(stitched->fanout, shards);
      if (stitched->fanout > 1) ++multi;
    }
    // The partitioner keeps shards coherent, but 200 random walks across
    // 2+ shards must cross at least once — otherwise the oracle is not
    // actually exercising the stitching path.
    EXPECT_GT(multi, 0u) << shards << " shards";
    EXPECT_GT(session->CutCrossings(), 0u) << shards << " shards";
  }
}

TEST(ShardOracleTest, AggregateAndTourMatchUnsharded) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto base_session = baseline->OpenSession();
  for (uint32_t shards : {2u, 4u, 8u}) {
    auto sharded = MakeSharded(net, shards);
    auto session = sharded->OpenSession();
    std::vector<Route> routes = OracleRoutes(net, 40, 42 + shards);
    for (const Route& route : routes) {
      RouteUnit unit;
      unit.name = "unit";
      for (size_t i = 1; i < route.nodes.size(); ++i) {
        unit.edges.emplace_back(route.nodes[i - 1], route.nodes[i]);
      }
      auto want = AggregateRouteUnit(base_session.get(), unit);
      ASSERT_TRUE(want.ok());
      size_t fanout = 0;
      auto got = AggregateRouteUnitSharded(session.get(), unit, &fanout);
      ASSERT_TRUE(got.ok());
      EXPECT_DOUBLE_EQ(got->total_edge_cost, want->total_edge_cost);
      EXPECT_EQ(got->min_edge_cost, want->min_edge_cost);
      EXPECT_EQ(got->max_edge_cost, want->max_edge_cost);
      EXPECT_EQ(got->num_edges, want->num_edges);
      EXPECT_EQ(got->num_nodes, want->num_nodes);
      EXPECT_GE(fanout, 1u);
    }
  }
}

TEST(ShardOracleTest, SpatialAndShortestPathMatchUnsharded) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto base_session = baseline->OpenSession();
  auto base_engine = SpatialQueryEngine::Build(base_session.get());
  ASSERT_TRUE(base_engine.ok());

  for (uint32_t shards : {2u, 4u, 8u}) {
    auto sharded = MakeSharded(net, shards);
    auto session = sharded->OpenSession();

    // The facade exposes owned nodes only, so the spatial build sees the
    // same live set as the unsharded file — no double-counted halos.
    ASSERT_EQ(session->LiveNodeIds(), base_session->LiveNodeIds());
    auto engine = SpatialQueryEngine::Build(session.get());
    ASSERT_TRUE(engine.ok());

    const double windows[][4] = {{0, 0, 400, 400},
                                 {100, 100, 900, 500},
                                 {-50, -50, 2000, 2000},
                                 {300, 0, 600, 1200}};
    for (const auto& w : windows) {
      auto want = (*base_engine)->WindowQuery(w[0], w[1], w[2], w[3]);
      auto got = (*engine)->WindowQuery(w[0], w[1], w[2], w[3]);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      std::set<NodeId> want_ids, got_ids;
      for (const NodeRecord& r : want->records) want_ids.insert(r.id);
      for (const NodeRecord& r : got->records) got_ids.insert(r.id);
      EXPECT_EQ(got_ids, want_ids);
    }

    std::vector<NodeId> ids = base_session->LiveNodeIds();
    for (int i = 0; i < 12; ++i) {
      NodeId from = ids[(i * 131) % ids.size()];
      NodeId to = ids[(i * 197 + 89) % ids.size()];
      auto want = ShortestPathAStar(base_session.get(), from, to);
      auto got = ShortestPathAStar(session.get(), from, to);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->Found(), want->Found());
      if (want->Found()) {
        EXPECT_DOUBLE_EQ(got->cost, want->cost);
        EXPECT_EQ(got->path.size(), want->path.size());
      }
    }
  }
}

// --- Halo closure ---------------------------------------------------------

TEST(ShardFileTest, EveryNeighborOfAnOwnedNodeIsLocal) {
  const Network& net = PaperNet();
  auto sharded = MakeSharded(net, 4);
  for (uint32_t s = 0; s < 4; ++s) {
    const NodePageMap& present = sharded->shard(s)->PageMap();
    for (NodeId u : sharded->router().OwnedBy(s)) {
      for (NodeId v : net.Neighbors(u)) {
        EXPECT_TRUE(present.count(v))
            << "shard " << s << ": neighbor " << v << " of owned node " << u
            << " has no local (halo) record";
      }
    }
  }
  // Halo copies are bit-identical to the owner's record.
  auto session = sharded->OpenSession();
  for (uint32_t s = 0; s < 4; ++s) {
    auto shard_sess = sharded->shard(s)->OpenSession();
    int checked = 0;
    for (const auto& kv : sharded->shard(s)->PageMap()) {
      if (sharded->router().ShardOf(kv.first) == s) continue;  // owned
      auto halo = shard_sess->Find(kv.first);
      auto owner = session->Find(kv.first);
      ASSERT_TRUE(halo.ok());
      ASSERT_TRUE(owner.ok());
      EXPECT_TRUE(*halo == *owner) << "halo copy of " << kv.first;
      if (++checked >= 25) break;  // sample; full sweep is O(halo * pages)
    }
    EXPECT_GT(checked, 0) << "shard " << s << " has no halo records";
  }
}

// --- IoStats conservation -------------------------------------------------

TEST(ShardIoStatsTest, SessionStatsSumToShardDiskReads) {
  const Network& net = PaperNet();
  auto sharded = MakeSharded(net, 4);
  sharded->ResetIoStats();
  auto session = sharded->OpenSession();
  std::vector<Route> routes = OracleRoutes(net, 120, 3);
  for (const Route& route : routes) {
    ASSERT_TRUE(EvaluateRouteSharded(session.get(), route).ok());
  }
  // Facade sum == per-shard sum == the shard disks' global read counters
  // (single session, cold pools: every miss is this session's miss).
  uint64_t per_shard_sessions = 0;
  uint64_t per_shard_disks = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    per_shard_sessions += session->ShardIoStats(s).reads;
    per_shard_disks += sharded->ShardIoStats(s).reads;
  }
  EXPECT_EQ(session->DataIoStats().reads, per_shard_sessions);
  EXPECT_EQ(per_shard_sessions, per_shard_disks);
  EXPECT_EQ(sharded->DataIoStats().reads, per_shard_disks);
  EXPECT_GT(per_shard_disks, 0u);
}

// --- Determinism ----------------------------------------------------------

TEST(ShardRouterTest, AssignmentIdenticalAcrossRunsAndThreadCounts) {
  const Network& net = PaperNet();
  auto one = MakeSharded(net, 4, /*num_threads=*/1);
  auto eight = MakeSharded(net, 4, /*num_threads=*/8);
  auto again = MakeSharded(net, 4, /*num_threads=*/1);

  EXPECT_EQ(one->router().Fingerprint(), eight->router().Fingerprint());
  EXPECT_EQ(one->router().Fingerprint(), again->router().Fingerprint());
  ASSERT_EQ(one->PageMap().size(), eight->PageMap().size());
  for (const auto& kv : one->PageMap()) {
    auto it = eight->PageMap().find(kv.first);
    ASSERT_NE(it, eight->PageMap().end());
    EXPECT_EQ(it->second, kv.second);
  }

  // Strongest form: the shard images themselves are byte-identical.
  ASSERT_TRUE(one->SaveImage(TempPath("det_a.img")).ok());
  ASSERT_TRUE(eight->SaveImage(TempPath("det_b.img")).ok());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(
        ReadFileBytes(TempPath("det_a.img.shard" + std::to_string(s))),
        ReadFileBytes(TempPath("det_b.img.shard" + std::to_string(s))))
        << "shard " << s;
  }
  EXPECT_EQ(ReadFileBytes(TempPath("det_a.img.shardmap")),
            ReadFileBytes(TempPath("det_b.img.shardmap")));
}

TEST(ShardRouterTest, PlanForReturnsMinimalShardSet) {
  const Network& net = PaperNet();
  auto sharded = MakeSharded(net, 4);
  const ShardRouter& router = sharded->router();

  std::vector<NodeId> owned0 = router.OwnedBy(0);
  ASSERT_GE(owned0.size(), 3u);
  ShardPlan single = router.PlanFor({owned0[0], owned0[1], owned0[2]});
  EXPECT_TRUE(single.single());
  EXPECT_EQ(single.shards[0], 0u);

  std::vector<NodeId> owned3 = router.OwnedBy(3);
  ASSERT_FALSE(owned3.empty());
  ShardPlan multi = router.PlanFor({owned0[0], owned3[0], owned0[1]});
  EXPECT_EQ(multi.shards, (std::vector<uint32_t>{0u, 3u}));

  // Unknown nodes are skipped, not planned.
  ShardPlan unknown = router.PlanFor({9999999u});
  EXPECT_TRUE(unknown.empty());
}

// --- Persistence ----------------------------------------------------------

TEST(ShardFileTest, SaveOpenRoundTripPreservesEverything) {
  const Network& net = PaperNet();
  auto sharded = MakeSharded(net, 4);
  const std::string path = TempPath("roundtrip.img");
  ASSERT_TRUE(sharded->SaveImage(path).ok());

  ShardedOptions sopts;
  sopts.num_shards = 4;
  sopts.am = BaseOptions();
  ShardedNetworkFile reopened(sopts);
  ASSERT_TRUE(reopened.OpenImage(path).ok());

  EXPECT_EQ(reopened.router().Fingerprint(),
            sharded->router().Fingerprint());
  EXPECT_EQ(reopened.NumCutEdges(), sharded->NumCutEdges());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(reopened.NumHaloRecords(s), sharded->NumHaloRecords(s));
  }
  ASSERT_EQ(reopened.PageMap().size(), sharded->PageMap().size());
  for (const auto& kv : sharded->PageMap()) {
    auto it = reopened.PageMap().find(kv.first);
    ASSERT_NE(it, reopened.PageMap().end());
    EXPECT_EQ(it->second, kv.second);
  }

  auto want_session = sharded->OpenSession();
  auto got_session = reopened.OpenSession();
  for (const Route& route : OracleRoutes(net, 50, 11)) {
    auto want = EvaluateRouteSharded(want_session.get(), route);
    auto got = EvaluateRouteSharded(got_session.get(), route);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->eval.total_cost, want->eval.total_cost);
    EXPECT_EQ(got->eval.num_edges, want->eval.num_edges);
    EXPECT_EQ(got->cut_crossings, want->cut_crossings);
  }

  // A mismatched shard count is a typed error, not a misread.
  ShardedOptions wrong = sopts;
  wrong.num_shards = 8;
  ShardedNetworkFile mismatched(wrong);
  Status s = mismatched.OpenImage(path);
  EXPECT_FALSE(s.ok());
}

// --- Metrics --------------------------------------------------------------

TEST(ShardMetricsTest, ShardFamilyCollectsCrossingsAndFanout) {
  const Network& net = PaperNet();
  ShardedOptions sopts;
  sopts.num_shards = 4;
  sopts.am = BaseOptions();
  ShardedNetworkFile sharded(sopts);
  MetricsRegistry registry;
  sharded.SetMetrics(&registry);
  ASSERT_TRUE(sharded.Create(net).ok());

  auto session = sharded.OpenSession();
  for (const Route& route : OracleRoutes(net, 60, 5)) {
    ASSERT_TRUE(EvaluateRouteSharded(session.get(), route).ok());
  }
  sharded.PublishShardMetrics();

  EXPECT_EQ(registry.GetCounter("shard.cut_crossings")->value(),
            session->CutCrossings());
  EXPECT_GT(registry.GetHistogram("shard.router.fanout")->count(), 0u);
  EXPECT_EQ(registry.GetGauge("shard.count")->value(), 4);
  EXPECT_EQ(registry.GetGauge("shard.cut_edges")->value(),
            static_cast<int64_t>(sharded.NumCutEdges()));
  uint64_t gauge_reads = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    gauge_reads += static_cast<uint64_t>(
        registry.GetGauge("shard." + std::to_string(s) + ".reads")->value());
  }
  EXPECT_EQ(gauge_reads, sharded.DataIoStats().reads);
}

// --- Concurrency (run under TSan via scripts/check_tsan.sh) ---------------

TEST(ShardConcurrencyTest, EightReaderHammerConservesAndAgrees) {
  const Network& net = PaperNet();
  auto baseline = MakeBaseline(net);
  auto sharded = MakeSharded(net, 4);
  sharded->ResetIoStats();

  // Serial oracle answers, computed up front.
  auto oracle_session = baseline->OpenSession();
  std::vector<Route> routes = OracleRoutes(net, 160, 23);
  std::vector<RouteEvalResult> expected;
  for (const Route& route : routes) {
    auto r = EvaluateRoute(oracle_session.get(), route);
    ASSERT_TRUE(r.ok());
    expected.push_back(*r);
  }

  constexpr int kThreads = 8;
  std::vector<uint64_t> session_reads(kThreads, 0);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = sharded->OpenSession();
      for (size_t i = t; i < routes.size(); i += 2) {
        auto got = EvaluateRouteSharded(session.get(), routes[i]);
        if (!got.ok() ||
            got->eval.total_cost != expected[i].total_cost ||
            got->eval.num_edges != expected[i].num_edges) {
          ++mismatches[t];
        }
      }
      session_reads[t] = session->DataIoStats().reads;
    });
  }
  for (auto& w : workers) w.join();

  uint64_t total_session_reads = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    total_session_reads += session_reads[t];
  }
  // Every miss was charged to exactly one session: the per-stream
  // counters sum exactly to the shard disks' global reads.
  EXPECT_EQ(total_session_reads, sharded->DataIoStats().reads);
  EXPECT_GT(total_session_reads, 0u);
}

}  // namespace
}  // namespace ccam
