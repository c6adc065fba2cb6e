#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/ccam.h"
#include "src/core/read_session.h"
#include "src/graph/generator.h"
#include "src/query/hierarchy.h"
#include "src/query/search.h"

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

struct Topology {
  const char* name;
  Network net;
  /// Smallest page size whose data file can host this topology (scale-free
  /// hub records outgrow a 512-byte page — a data-file limit, not an
  /// overlay one).
  size_t min_page_size;
};

std::vector<Topology> AllTopologies() {
  std::vector<Topology> out;
  out.push_back({"minneapolis", GenerateMinneapolisLikeMap(1995), 512});
  out.push_back({"geometric", GenerateRandomGeometricNetwork(400, 80.0), 512});
  out.push_back({"ring-radial", GenerateRingRadialCity(8, 12), 512});
  out.push_back({"scale-free", GenerateScaleFreeNetwork(300), 2048});
  return out;
}

std::unique_ptr<Ccam> MakeOverlayFile(const Network& net, size_t page_size) {
  AccessMethodOptions options;
  options.page_size = page_size;
  options.buffer_pool_pages = 8;
  options.hierarchy_overlay = true;
  auto am = std::make_unique<Ccam>(options, CcamCreateMode::kStatic);
  EXPECT_TRUE(am->Create(net).ok());
  EXPECT_TRUE(am->HasHierarchy());
  return am;
}

/// Checks one CH answer against the paged Dijkstra oracle: same
/// reachability, same cost, and an unpacked path that is a real
/// src..dst walk over original edges summing to the reported cost.
void ExpectMatchesOracle(const Network& net, const SearchResult& ch,
                         const SearchResult& dj, NodeId src, NodeId dst) {
  ASSERT_EQ(ch.Found(), dj.Found()) << src << "->" << dst;
  if (!dj.Found()) return;
  // Costs are double sums of the same float edge costs, associated
  // differently (shortcut costs pre-sum their halves), so allow only
  // accumulation-order noise.
  EXPECT_NEAR(ch.cost, dj.cost, 1e-6 * (1.0 + dj.cost)) << src << "->" << dst;
  ASSERT_GE(ch.path.size(), 1u);
  EXPECT_EQ(ch.path.front(), src);
  EXPECT_EQ(ch.path.back(), dst);
  double walked = 0.0;
  for (size_t i = 0; i + 1 < ch.path.size(); ++i) {
    float c = 0.0f;
    ASSERT_TRUE(net.EdgeCost(ch.path[i], ch.path[i + 1], &c).ok())
        << "unpacked step " << ch.path[i] << "->" << ch.path[i + 1]
        << " is not an original edge";
    walked += c;
  }
  EXPECT_NEAR(walked, ch.cost, 1e-6 * (1.0 + ch.cost));
}

// The equivalence oracle: >= 500 random pairs across every generator
// topology and both extreme page sizes (4 x 2 x 64 = 512 pairs).
TEST(HierarchyOracleTest, MatchesDijkstraAcrossTopologiesAndPageSizes) {
  for (Topology& topo : AllTopologies()) {
    std::vector<NodeId> ids = topo.net.NodeIds();
    for (size_t page_size : {topo.min_page_size, size_t{4096}}) {
      auto am = MakeOverlayFile(topo.net, page_size);
      Random rng(0xCC + page_size);
      for (int i = 0; i < 64; ++i) {
        NodeId src = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
        NodeId dst = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
        auto ch = ShortestPathCH(am.get(), src, dst);
        ASSERT_TRUE(ch.ok()) << topo.name << ": " << ch.status().message();
        auto dj = ShortestPathDijkstra(am.get(), src, dst);
        ASSERT_TRUE(dj.ok());
        ExpectMatchesOracle(topo.net, *ch, *dj, src, dst);
      }
    }
  }
}

TEST(HierarchyOracleTest, SelfQueryReturnsTrivialPath) {
  Network net = GenerateRingRadialCity(4, 6);
  auto am = MakeOverlayFile(net, 1024);
  NodeId n = net.NodeIds()[3];
  auto r = ShortestPathCH(am.get(), n, n);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->path, std::vector<NodeId>{n});
  EXPECT_EQ(r->cost, 0.0);
}

// The overlay bytes are a pure function of the network and the options:
// any worker count produces the identical image.
TEST(HierarchyDeterminismTest, OverlayBytesIdenticalAcrossThreadCounts) {
  Network net = GenerateMinneapolisLikeMap(1995);
  std::string reference;
  for (int threads : {1, 2, 4}) {
    AccessMethodOptions options;
    options.page_size = 1024;
    options.hierarchy_overlay = true;
    options.num_threads = threads;
    Ccam am(options, CcamCreateMode::kStatic);
    ASSERT_TRUE(am.Create(net).ok());
    ASSERT_TRUE(am.HasHierarchy());
    std::string path =
        TempPath("hier_det_" + std::to_string(threads) + ".bin");
    ASSERT_TRUE(am.hierarchy()->SaveImage(path).ok());
    std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    ASSERT_FALSE(bytes.empty());
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

TEST(HierarchyInvalidationTest, MutationDropsOverlayAndRebuildRestoresIt) {
  Network net = GenerateMinneapolisLikeMap(1995);
  auto am = MakeOverlayFile(net, 1024);
  std::vector<NodeId> ids = net.NodeIds();
  NodeId src = ids.front(), dst = ids.back();
  ASSERT_TRUE(ShortestPathCH(am.get(), src, dst).ok());

  // Any maintenance operation invalidates the overlay...
  ASSERT_TRUE(
      am->InsertEdge(ids[0], ids[5], 123.0f, ReorgPolicy::kFirstOrder).ok());
  EXPECT_FALSE(am->HasHierarchy());
  EXPECT_TRUE(ShortestPathCH(am.get(), src, dst).status().IsNotSupported());

  // ...and an explicit rebuild rescans the file and restores CH queries,
  // now seeing the new edge.
  ASSERT_TRUE(am->BuildHierarchyOverlay().ok());
  ASSERT_TRUE(am->HasHierarchy());
  auto ch = ShortestPathCH(am.get(), ids[0], ids[5]);
  auto dj = ShortestPathDijkstra(am.get(), ids[0], ids[5]);
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(dj.ok());
  EXPECT_NEAR(ch->cost, dj->cost, 1e-6 * (1.0 + dj->cost));
  EXPECT_TRUE(am->hierarchy()->CheckInvariants().ok());
}

TEST(HierarchyPersistenceTest, OverlayRoundTripsThroughImages) {
  Network net = GenerateRingRadialCity(8, 12);
  auto am = MakeOverlayFile(net, 1024);
  std::string path = TempPath("hier_roundtrip.bin");
  ASSERT_TRUE(am->SaveImage(path).ok());

  AccessMethodOptions options = am->options();
  Ccam reopened(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(reopened.OpenImage(path).ok());
  ASSERT_TRUE(reopened.HasHierarchy());
  EXPECT_TRUE(reopened.hierarchy()->CheckInvariants().ok());

  std::vector<NodeId> ids = net.NodeIds();
  Random rng(77);
  for (int i = 0; i < 16; ++i) {
    NodeId src = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    NodeId dst = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
    auto ch = ShortestPathCH(&reopened, src, dst);
    auto dj = ShortestPathDijkstra(&reopened, src, dst);
    ASSERT_TRUE(ch.ok());
    ASSERT_TRUE(dj.ok());
    ExpectMatchesOracle(net, *ch, *dj, src, dst);
  }
  std::remove(path.c_str());
  std::remove((path + ".hier").c_str());
}

TEST(HierarchyPersistenceTest, MissingSidecarReopensWithoutOverlay) {
  Network net = GenerateRingRadialCity(4, 6);
  auto am = MakeOverlayFile(net, 1024);
  std::string path = TempPath("hier_no_sidecar.bin");
  ASSERT_TRUE(am->SaveImage(path).ok());
  std::remove((path + ".hier").c_str());

  Ccam reopened(am->options(), CcamCreateMode::kStatic);
  ASSERT_TRUE(reopened.OpenImage(path).ok());
  EXPECT_FALSE(reopened.HasHierarchy());
  // The data file itself is intact: flat queries still work.
  std::vector<NodeId> ids = net.NodeIds();
  EXPECT_TRUE(ShortestPathDijkstra(&reopened, ids.front(), ids.back()).ok());
  std::remove(path.c_str());
}

TEST(HierarchySessionTest, OverlayIoIsChargedPerSession) {
  Network net = GenerateMinneapolisLikeMap(1995);
  auto am = MakeOverlayFile(net, 1024);
  std::vector<NodeId> ids = net.NodeIds();

  auto session = am->OpenSession();
  ASSERT_TRUE(session->HasHierarchy());
  auto ch = ShortestPathCH(session.get(), ids.front(), ids.back());
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(ch->Found());
  // A long query climbs the hierarchy: overlay reads are charged to this
  // session and surface in the search's page_accesses...
  EXPECT_GT(session->HierarchyIoStats().Accesses(), 0u);
  EXPECT_EQ(ch->page_accesses, session->HierarchyIoStats().Accesses() +
                                   session->DataIoStats().Accesses());
  // ...and ResetIoStats clears both families.
  session->ResetIoStats();
  EXPECT_EQ(session->HierarchyIoStats().Accesses(), 0u);
}

// Concurrency hammer (run under TSan via check_tsan.sh): many sessions
// fire CH queries at one shared overlay at once. ReadNode's pool path must
// be race-free and every thread must get the single-threaded answer.
TEST(HierarchySessionTest, ConcurrentSessionsAgreeWithSerialAnswers) {
  Network net = GenerateMinneapolisLikeMap(1995);
  auto am = MakeOverlayFile(net, 1024);
  std::vector<NodeId> ids = net.NodeIds();

  const int kThreads = 8, kQueries = 16;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Random rng(99);
  for (int i = 0; i < kQueries; ++i) {
    pairs.emplace_back(ids[rng.Uniform(static_cast<uint32_t>(ids.size()))],
                       ids[rng.Uniform(static_cast<uint32_t>(ids.size()))]);
  }
  std::vector<double> serial;
  for (auto& [src, dst] : pairs) {
    auto r = ShortestPathCH(am.get(), src, dst);
    ASSERT_TRUE(r.ok());
    serial.push_back(r->Found() ? r->cost : -1.0);
  }

  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      auto session = am->OpenSession();
      for (size_t i = 0; i < pairs.size(); ++i) {
        auto r = ShortestPathCH(session.get(), pairs[i].first,
                                pairs[i].second);
        if (!r.ok() || (r->Found() ? r->cost : -1.0) != serial[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(HierarchyOverlayTest, IncrementalCreateBuildsOverlayToo) {
  Network net = GenerateRingRadialCity(6, 8);
  AccessMethodOptions options;
  options.page_size = 1024;
  options.hierarchy_overlay = true;
  Ccam am(options, CcamCreateMode::kIncremental);
  ASSERT_TRUE(am.Create(net).ok());
  ASSERT_TRUE(am.HasHierarchy());
  EXPECT_TRUE(am.hierarchy()->CheckInvariants().ok());
  std::vector<NodeId> ids = net.NodeIds();
  auto ch = ShortestPathCH(&am, ids.front(), ids.back());
  auto dj = ShortestPathDijkstra(&am, ids.front(), ids.back());
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(dj.ok());
  ExpectMatchesOracle(net, *ch, *dj, ids.front(), ids.back());
}

}  // namespace
}  // namespace ccam
