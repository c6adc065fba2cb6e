#include "src/core/reorg.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/core/ccam.h"
#include "src/graph/generator.h"
#include "src/storage/snapshot_manager.h"

namespace ccam {
namespace {

/// 6 nodes on 3 pages: pages 0-1 and 1-2 are PAG neighbors; 0-2 are not.
struct Fixture {
  Network net;
  NodePageMap map;

  Fixture() {
    for (NodeId id = 0; id < 6; ++id) {
      EXPECT_TRUE(net.AddNode(id, id, 0).ok());
      map[id] = id / 2;  // pages 0,0,1,1,2,2
    }
    EXPECT_TRUE(net.AddBidirectionalEdge(0, 1, 1.0f).ok());  // intra page 0
    EXPECT_TRUE(net.AddBidirectionalEdge(2, 3, 1.0f).ok());  // intra page 1
    EXPECT_TRUE(net.AddBidirectionalEdge(4, 5, 1.0f).ok());  // intra page 2
    EXPECT_TRUE(net.AddEdge(1, 2, 1.0f).ok());               // page 0 - 1
    EXPECT_TRUE(net.AddEdge(3, 4, 1.0f).ok());               // page 1 - 2
  }
};

TEST(PagTest, BuildMatchesDefinition) {
  Fixture f;
  PageAccessGraph pag = PageAccessGraph::Build(f.net, f.map);
  EXPECT_EQ(pag.NumPages(), 3u);
  EXPECT_EQ(pag.NumEdges(), 2u);
  EXPECT_TRUE(pag.IsNeighborPage(0, 1));
  EXPECT_TRUE(pag.IsNeighborPage(1, 0));  // symmetric
  EXPECT_TRUE(pag.IsNeighborPage(1, 2));
  EXPECT_FALSE(pag.IsNeighborPage(0, 2));
  EXPECT_FALSE(pag.IsNeighborPage(0, 0));  // intra-page edges excluded
}

TEST(PagTest, NbrPages) {
  Fixture f;
  PageAccessGraph pag = PageAccessGraph::Build(f.net, f.map);
  EXPECT_EQ(pag.NbrPages(0), std::vector<PageId>{1});
  EXPECT_EQ(pag.NbrPages(1), (std::vector<PageId>{0, 2}));
  EXPECT_EQ(pag.NbrPages(2), std::vector<PageId>{1});
  EXPECT_TRUE(pag.NbrPages(99).empty());
}

TEST(PagTest, PagesAndDegree) {
  Fixture f;
  PageAccessGraph pag = PageAccessGraph::Build(f.net, f.map);
  EXPECT_EQ(pag.Pages(), (std::vector<PageId>{0, 1, 2}));
  EXPECT_NEAR(pag.AvgDegree(), 4.0 / 3.0, 1e-12);
}

TEST(PagTest, PagesOfNbrsDefinition) {
  Fixture f;
  // Node 2 (page 1) has neighbors 1 (page 0) and 3 (page 1).
  EXPECT_EQ(PagesOfNbrs(f.net, 2, f.map), (std::vector<PageId>{0, 1}));
  // Node 0 has only neighbor 1 (same page 0).
  EXPECT_EQ(PagesOfNbrs(f.net, 0, f.map), std::vector<PageId>{0});
}

TEST(PagTest, UnmappedNodesIgnored) {
  Fixture f;
  f.map.erase(4);
  PageAccessGraph pag = PageAccessGraph::Build(f.net, f.map);
  EXPECT_FALSE(pag.IsNeighborPage(1, 2));  // 3-4 edge lost its endpoint
}

TEST(PagTest, HighCrrClusteringHasSparsePag) {
  // A good clustering confines edges within pages, so the PAG is sparse
  // relative to a random assignment of the same page count.
  Network net = GenerateMinneapolisLikeMap(1995);
  AccessMethodOptions options;
  options.page_size = 1024;
  Ccam am(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net).ok());
  PageAccessGraph good = PageAccessGraph::Build(net, am.PageMap());

  // Scramble: same pages, nodes assigned round-robin.
  NodePageMap scrambled;
  std::vector<PageId> pages;
  for (const auto& [node, page] : am.PageMap()) pages.push_back(page);
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  size_t i = 0;
  for (NodeId id : net.NodeIds()) {
    scrambled[id] = pages[i++ % pages.size()];
  }
  PageAccessGraph bad = PageAccessGraph::Build(net, scrambled);
  EXPECT_LT(good.AvgDegree(), bad.AvgDegree() * 0.5);
}

// The in-place reorganizers above rewrite the pages they serve, so they
// assume exclusive access to the file for the duration. The snapshot store
// drops that assumption: full reclustering builds a next version off to
// the side and publishes it with an atomic swap, while sessions opened
// before the swap keep reading the old clustering undisturbed.
TEST(OnlineReorgTest, SnapshotSwapReclustersWithoutExclusiveAccess) {
  SnapshotOptions sopt;
  sopt.am.page_size = 1024;
  sopt.am.buffer_pool_pages = 8;
  sopt.am.num_threads = 1;
  const char* tmp = std::getenv("TMPDIR");
  sopt.dir = std::string(tmp != nullptr ? tmp : "/tmp") +
             "/ccam_online_reorg_store";
  std::error_code ec;
  std::filesystem::remove_all(sopt.dir, ec);

  Network net = GenerateMinneapolisLikeMap(1995);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();

  // A reader stays open across the whole reorganization.
  std::unique_ptr<ReadSession> session = (*mgr)->OpenSession();
  uint64_t v_before = session->version_id();
  NodeId probe = net.NodeIds().front();
  ASSERT_TRUE(session->Find(probe).ok());

  // Mutate: fresh nodes land in the overlay only, so the *base* clustering
  // no longer covers the full network.
  NodeId next_id = 0;
  for (NodeId id : net.NodeIds()) next_id = std::max(next_id, id + 1);
  std::vector<NodeId> anchors = net.NodeIds();
  for (int i = 0; i < 40; ++i) {
    NodeRecord rec;
    rec.id = next_id++;
    rec.x = static_cast<double>(i);
    rec.y = 0.0;
    rec.succ.push_back({anchors[i % anchors.size()], 1.0f});
    rec.pred.push_back({anchors[i % anchors.size()], 1.0f});
    ASSERT_TRUE((*mgr)->InsertNode(rec).ok());
  }
  double crr_degraded = ComputeCrr((*mgr)->network(), session->PageMap());

  ASSERT_TRUE((*mgr)->ReorganizeNow().ok());

  // The session never migrated — it still reads version 1's clustering —
  // and its reads still work (the old version's pages are alive until the
  // refcount drains).
  EXPECT_EQ(session->version_id(), v_before);
  EXPECT_TRUE(session->Find(probe).ok());

  // After refreshing, the session sees the new base, whose clustering
  // covers the mutated network: CRR recovers past the degraded view.
  session->Refresh();
  EXPECT_GT(session->version_id(), v_before);
  double crr_swapped = ComputeCrr((*mgr)->network(), session->PageMap());
  EXPECT_GT(crr_swapped, crr_degraded);

  // The swapped-in base is exactly what an exclusive static rebuild of the
  // mutated network produces — same clusterer, same options, same seed.
  Ccam fresh(sopt.am, CcamCreateMode::kStatic);
  ASSERT_TRUE(fresh.Create((*mgr)->network()).ok());
  EXPECT_EQ(session->PageMap(), fresh.PageMap());
  ASSERT_TRUE((*mgr)->CheckConsistency().ok());
}

}  // namespace
}  // namespace ccam
