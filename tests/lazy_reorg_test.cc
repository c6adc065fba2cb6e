#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/common/random.h"
#include "src/core/ccam.h"
#include "src/graph/generator.h"
#include "src/storage/snapshot_manager.h"

namespace ccam {
namespace {

AccessMethodOptions Opts() {
  AccessMethodOptions options;
  options.page_size = 1024;
  options.buffer_pool_pages = 8;
  return options;
}

/// Runs an identical update stream and returns (#lazy reorgs, final CRR,
/// total update I/O).
struct StreamResult {
  uint64_t lazy_reorgs;
  double crr;
  uint64_t io;
};

StreamResult RunStream(int lazy_threshold, int n_ops) {
  Network net = GenerateMinneapolisLikeMap(808);
  Ccam am(Opts(), CcamCreateMode::kStatic);
  EXPECT_TRUE(am.Create(net).ok());
  if (lazy_threshold > 0) am.EnableLazyReorganization(lazy_threshold);

  Network current = net;
  Random rng(11);
  am.ResetIoStats();
  for (int i = 0; i < n_ops; ++i) {
    auto edges = current.Edges();
    const auto& e = edges[rng.Uniform(static_cast<uint32_t>(edges.size()))];
    if (i % 2 == 0) {
      EXPECT_TRUE(am.DeleteEdge(e.from, e.to, ReorgPolicy::kFirstOrder).ok());
      EXPECT_TRUE(current.RemoveEdge(e.from, e.to).ok());
    } else {
      // Re-wire: connect two random nodes.
      auto ids = current.NodeIds();
      NodeId u = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
      NodeId v = ids[rng.Uniform(static_cast<uint32_t>(ids.size()))];
      if (u == v || current.HasEdge(u, v)) continue;
      EXPECT_TRUE(am.InsertEdge(u, v, 9.0f, ReorgPolicy::kFirstOrder).ok());
      EXPECT_TRUE(current.AddEdge(u, v, 9.0f).ok());
    }
  }
  EXPECT_TRUE(am.CheckFileInvariants().ok());
  return {am.LazyReorgCount(), ComputeCrr(current, am.PageMap()),
          am.DataIoStats().Accesses()};
}

TEST(LazyReorgTest, DisabledByDefault) {
  StreamResult r = RunStream(0, 100);
  EXPECT_EQ(r.lazy_reorgs, 0u);
}

TEST(LazyReorgTest, TriggersAfterThresholdUpdates) {
  StreamResult r = RunStream(4, 200);
  EXPECT_GT(r.lazy_reorgs, 0u);
}

TEST(LazyReorgTest, HigherThresholdTriggersLess) {
  StreamResult aggressive = RunStream(3, 200);
  StreamResult relaxed = RunStream(12, 200);
  EXPECT_GT(aggressive.lazy_reorgs, relaxed.lazy_reorgs);
}

TEST(LazyReorgTest, LazyCostsMoreIoButKeepsFileValid) {
  StreamResult plain = RunStream(0, 200);
  StreamResult lazy = RunStream(4, 200);
  // The deferred reorganizations pay extra I/O relative to first-order...
  EXPECT_GT(lazy.io, plain.io);
  // ...and both CRRs remain sane.
  EXPECT_GE(lazy.crr, 0.0);
  EXPECT_LE(lazy.crr, 1.0);
}

TEST(LazyReorgTest, LazyImprovesCrrOnInsertionStream) {
  // The Figure 7 scenario: insert 15% of the nodes under first-order,
  // with and without lazy reclustering on top.
  Network net = GenerateMinneapolisLikeMap(909);
  Random rng(3);
  std::vector<NodeId> ids = net.NodeIds();
  rng.Shuffle(&ids);
  size_t n_insert = net.NumNodes() * 3 / 20;
  std::vector<NodeId> stream(ids.begin(), ids.begin() + n_insert);
  std::vector<NodeId> base_ids(ids.begin() + n_insert, ids.end());
  Network base = net.InducedSubnetwork(base_ids);

  double crr[2];
  for (int use_lazy = 0; use_lazy < 2; ++use_lazy) {
    Ccam am(Opts(), CcamCreateMode::kStatic);
    ASSERT_TRUE(am.Create(base).ok());
    if (use_lazy) am.EnableLazyReorganization(5);
    for (NodeId id : stream) {
      NodeRecord rec = NodeRecord::FromNetworkNode(id, net.node(id));
      ASSERT_TRUE(am.InsertNode(rec, ReorgPolicy::kFirstOrder).ok());
    }
    ASSERT_TRUE(am.CheckFileInvariants().ok());
    crr[use_lazy] = ComputeCrr(net, am.PageMap());
  }
  EXPECT_GT(crr[1], crr[0]);
}

TEST(LazyReorgTest, DisableStopsFurtherReorgs) {
  Network net = GenerateMinneapolisLikeMap(808);
  Ccam am(Opts(), CcamCreateMode::kStatic);
  ASSERT_TRUE(am.Create(net).ok());
  am.EnableLazyReorganization(2);
  auto edges = net.Edges();
  ASSERT_TRUE(
      am.DeleteEdge(edges[0].from, edges[0].to, ReorgPolicy::kFirstOrder)
          .ok());
  am.DisableLazyReorganization();
  uint64_t count = am.LazyReorgCount();
  for (int i = 1; i < 30; ++i) {
    (void)am.DeleteEdge(edges[i].from, edges[i].to,
                        ReorgPolicy::kFirstOrder);
  }
  EXPECT_EQ(am.LazyReorgCount(), count);
}

// The Figure 7 repair, done online: lazy reorganization above reclusters
// *in place* and therefore owns the file exclusively while it runs. The
// snapshot store reaches the same end state — a full reclustering over the
// mutated network — through a background build and an atomic version swap,
// with a reader session open (and readable) the entire time.
TEST(LazyReorgTest, SnapshotSwapRepairsCrrWithReadersOpen) {
  Network net = GenerateMinneapolisLikeMap(909);
  Random rng(3);
  std::vector<NodeId> ids = net.NodeIds();
  rng.Shuffle(&ids);
  size_t n_insert = net.NumNodes() * 3 / 20;
  std::vector<NodeId> stream(ids.begin(), ids.begin() + n_insert);
  std::vector<NodeId> base_ids(ids.begin() + n_insert, ids.end());
  Network base = net.InducedSubnetwork(base_ids);

  SnapshotOptions sopt;
  sopt.am.page_size = 1024;
  sopt.am.buffer_pool_pages = 8;
  sopt.am.num_threads = 1;
  const char* tmp = std::getenv("TMPDIR");
  sopt.dir = std::string(tmp != nullptr ? tmp : "/tmp") +
             "/ccam_lazy_swap_store";
  std::error_code ec;
  std::filesystem::remove_all(sopt.dir, ec);
  auto mgr = SnapshotManager::Create(sopt, base);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  std::unique_ptr<ReadSession> session = (*mgr)->OpenSession();

  // Insert the 15% stream: the nodes are visible immediately through the
  // overlay, but the *base* clustering predates them, so CRR over the
  // mutated network decays (overlay-only nodes have no page).
  for (NodeId id : stream) {
    NodeRecord rec = NodeRecord::FromNetworkNode(id, net.node(id));
    ASSERT_TRUE((*mgr)->InsertNode(rec).ok());
  }
  session->Refresh();
  ASSERT_EQ(session->NumLiveNodes(), (*mgr)->network().NumNodes());
  double crr_degraded = ComputeCrr((*mgr)->network(), session->PageMap());

  ASSERT_TRUE((*mgr)->ReorganizeNow().ok());
  // The old session keeps reading without interruption...
  ASSERT_TRUE(session->Find(base_ids.front()).ok());
  // ...and one refresh later sees the repaired clustering.
  session->Refresh();
  double crr_repaired = ComputeCrr((*mgr)->network(), session->PageMap());
  EXPECT_GT(crr_repaired, crr_degraded);
  EXPECT_GE(crr_repaired, 0.0);
  EXPECT_LE(crr_repaired, 1.0);
}

}  // namespace
}  // namespace ccam
