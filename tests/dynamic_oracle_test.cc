#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <filesystem>

#include "src/common/random.h"
#include "src/core/ccam.h"
#include "src/core/file_stats.h"
#include "src/graph/generator.h"
#include "src/storage/snapshot_manager.h"

namespace ccam {
namespace {

// Differential-oracle runner: replays a seeded mixed Insert/Delete/query
// workload against a Ccam file and an in-memory reference graph (a plain
// Network) in lockstep, comparing every query result and, periodically,
// the complete stored state. Zero divergence over the whole run is the
// acceptance bar.

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

AccessMethodOptions MakeOptions(size_t page_size, uint64_t seed,
                                int num_threads) {
  AccessMethodOptions opt;
  opt.page_size = page_size;
  opt.buffer_pool_pages = 8;
  opt.seed = seed;
  opt.num_threads = num_threads;
  return opt;
}

// Sorted (neighbor, cost) view of an adjacency list for order-insensitive
// comparison.
std::vector<std::pair<NodeId, float>> Sorted(const std::vector<AdjEntry>& v) {
  std::vector<std::pair<NodeId, float>> out;
  out.reserve(v.size());
  for (const AdjEntry& e : v) out.emplace_back(e.node, e.cost);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<NodeId, float>> OracleSucc(const Network& net,
                                                 NodeId id) {
  return Sorted(net.node(id).succ);
}

// Compares the complete stored state against the oracle: same node set,
// same coordinates/payload, same successor- and predecessor-lists.
void ExpectFileMatchesOracle(Ccam* file, const Network& net,
                             const std::string& where) {
  ASSERT_EQ(file->PageMap().size(), net.NumNodes()) << where;
  for (NodeId id : net.NodeIds()) {
    auto rec = file->Find(id);
    ASSERT_TRUE(rec.ok()) << where << ": node " << id << ": "
                          << rec.status().ToString();
    const NetworkNode& node = net.node(id);
    EXPECT_EQ(rec->x, node.x) << where << ": node " << id;
    EXPECT_EQ(rec->y, node.y) << where << ": node " << id;
    EXPECT_EQ(rec->payload, node.payload) << where << ": node " << id;
    EXPECT_EQ(Sorted(rec->succ), Sorted(node.succ))
        << where << ": succ of " << id;
    EXPECT_EQ(Sorted(rec->pred), Sorted(node.pred))
        << where << ": pred of " << id;
  }
}

struct RunConfig {
  size_t page_size = 1024;
  uint64_t seed = 1995;
  int ops = 0;
  int num_threads = 1;
  ReorgPolicy policy = ReorgPolicy::kFirstOrder;
};

// Replays the seeded op stream; on return `*net` is the final oracle
// state. The stream (which ops run, in which order, with which operands)
// is a pure function of (seed, ops) — never of page size, thread count or
// policy — so two configs with the same seed see the same logical history.
void RunDifferentialWorkload(const RunConfig& cfg, Ccam* file, Network* net) {
  *net = GenerateRandomGeometricNetwork(64, /*radius=*/200.0,
                                        /*extent=*/1000.0, cfg.seed);
  ASSERT_TRUE(file->Create(*net).ok());
  Random rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
  NodeId next_id = 0;
  for (NodeId id : net->NodeIds()) next_id = std::max(next_id, id + 1);
  int divergences = 0;
  for (int i = 0; i < cfg.ops && divergences == 0; ++i) {
    std::vector<NodeId> live = net->NodeIds();
    ASSERT_FALSE(live.empty());
    auto pick = [&] {
      return live[rng.Uniform(static_cast<uint32_t>(live.size()))];
    };
    uint32_t kind = rng.Uniform(100);
    std::string where = "op " + std::to_string(i);
    if (kind < 18) {
      NodeRecord rec;
      rec.id = next_id++;
      rec.x = rng.NextDouble() * 1000.0;
      rec.y = rng.NextDouble() * 1000.0;
      rec.payload = std::string(1 + rng.Uniform(24), 'p');
      NodeId a = pick();
      float ca = 1.0f + static_cast<float>(rng.Uniform(9));
      rec.succ.push_back({a, ca});
      rec.pred.push_back({a, ca});
      ASSERT_TRUE(file->InsertNode(rec, cfg.policy).ok()) << where;
      ASSERT_TRUE(net->AddNode(rec.id, rec.x, rec.y, rec.payload).ok());
      ASSERT_TRUE(net->AddBidirectionalEdge(rec.id, a, ca).ok());
    } else if (kind < 30) {
      NodeId victim = pick();
      ASSERT_TRUE(file->DeleteNode(victim, cfg.policy).ok())
          << where << ": node " << victim;
      ASSERT_TRUE(net->RemoveNode(victim).ok());
    } else if (kind < 48) {
      NodeId u = pick();
      NodeId v = pick();
      float cost = 1.0f + static_cast<float>(rng.Uniform(9));
      Status st = file->InsertEdge(u, v, cost, cfg.policy);
      if (u == v || net->HasEdge(u, v)) {
        // The oracle predicts rejection; the file must agree.
        EXPECT_FALSE(st.ok()) << where;
      } else {
        ASSERT_TRUE(st.ok()) << where << ": " << st.ToString();
        ASSERT_TRUE(net->AddEdge(u, v, cost).ok());
      }
    } else if (kind < 58) {
      NodeId u = pick();
      const auto& succ = net->node(u).succ;
      if (succ.empty()) {
        EXPECT_TRUE(
            file->DeleteEdge(u, u + 1000000, cfg.policy).IsNotFound());
        continue;
      }
      NodeId v = succ[rng.Uniform(static_cast<uint32_t>(succ.size()))].node;
      ASSERT_TRUE(file->DeleteEdge(u, v, cfg.policy).ok()) << where;
      ASSERT_TRUE(net->RemoveEdge(u, v).ok());
    } else if (kind < 72) {
      // Point query, present node.
      NodeId id = pick();
      auto rec = file->Find(id);
      ASSERT_TRUE(rec.ok()) << where;
      if (Sorted(rec->succ) != OracleSucc(*net, id)) ++divergences;
      EXPECT_EQ(Sorted(rec->succ), OracleSucc(*net, id)) << where;
    } else if (kind < 80) {
      // Point query, absent node: both sides must say NotFound.
      EXPECT_TRUE(
          file->Find(next_id + 1 + rng.Uniform(1000)).status().IsNotFound())
          << where;
    } else if (kind < 92) {
      NodeId id = pick();
      auto succs = file->GetSuccessors(id);
      ASSERT_TRUE(succs.ok()) << where;
      std::vector<NodeId> got;
      for (const NodeRecord& r : *succs) got.push_back(r.id);
      std::sort(got.begin(), got.end());
      std::vector<NodeId> want;
      for (const AdjEntry& e : net->node(id).succ) want.push_back(e.node);
      std::sort(want.begin(), want.end());
      if (got != want) ++divergences;
      EXPECT_EQ(got, want) << where;
    } else {
      // Get-A-successor degenerates to Find(to) per the paper; both the
      // returned record and its back-edge view must match the oracle.
      NodeId u = pick();
      NodeId v = pick();
      auto rec = file->GetASuccessor(u, v);
      ASSERT_TRUE(rec.ok()) << where;
      EXPECT_EQ(rec->id, v) << where;
      EXPECT_EQ(rec->HasPredecessor(u), net->HasEdge(u, v)) << where;
    }
    // Periodic full-state audit (every op would be quadratic).
    if (i % 500 == 499) ExpectFileMatchesOracle(file, *net, where);
  }
  ExpectFileMatchesOracle(file, *net, "final");
}

class DynamicOracleTest : public ::testing::TestWithParam<size_t> {};

// Acceptance: zero divergence between the file and the in-memory oracle
// over the full seeded workload, at 1 KiB and 4 KiB pages. The default op
// count keeps the tier-1 run fast; the `faults`-configuration sweep
// (scripts/check_faults.sh) raises CCAM_ORACLE_OPS to 10000.
TEST_P(DynamicOracleTest, NoDivergenceFromInMemoryReference) {
  RunConfig cfg;
  cfg.page_size = GetParam();
  cfg.ops = EnvInt("CCAM_ORACLE_OPS", 1500);
  int seeds = EnvInt("CCAM_ORACLE_SEEDS", 1);
  for (int s = 0; s < seeds; ++s) {
    cfg.seed = 1995 + 31 * s;
    Ccam file(MakeOptions(cfg.page_size, cfg.seed, cfg.num_threads));
    Network net;
    RunDifferentialWorkload(cfg, &file, &net);
    if (::testing::Test::HasFatalFailure()) return;
    // The paper's bookkeeping must agree with the oracle: CollectFileStats
    // computes CRR from the *stored* records against the oracle's edge
    // set; a mismatch in either direction would skew it.
    auto stats = CollectFileStats(&file, net);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->num_nodes, net.NumNodes());
  }
}

TEST_P(DynamicOracleTest, SecondOrderPolicyAlsoMatchesOracle) {
  RunConfig cfg;
  cfg.page_size = GetParam();
  cfg.policy = ReorgPolicy::kSecondOrder;
  cfg.ops = EnvInt("CCAM_ORACLE_OPS", 1500) / 3;
  Ccam file(MakeOptions(cfg.page_size, cfg.seed, cfg.num_threads));
  Network net;
  RunDifferentialWorkload(cfg, &file, &net);
}

// Satellite: the workload is deterministic — two runs with the same seed,
// and runs with different clustering thread counts, save byte-identical
// images.
TEST_P(DynamicOracleTest, ImageBytesDeterministicAcrossRunsAndThreads) {
  RunConfig cfg;
  cfg.page_size = GetParam();
  cfg.ops = 400;
  auto run = [&](int num_threads, const std::string& name) {
    cfg.num_threads = num_threads;
    Ccam file(MakeOptions(cfg.page_size, cfg.seed, num_threads));
    Network net;
    RunDifferentialWorkload(cfg, &file, &net);
    std::string path = TempPath(name);
    EXPECT_TRUE(file.SaveImage(path).ok());
    std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    return bytes;
  };
  std::string t1a = run(1, "ccam_oracle_t1a.img");
  if (::testing::Test::HasFatalFailure()) return;
  std::string t1b = run(1, "ccam_oracle_t1b.img");
  std::string t3 = run(3, "ccam_oracle_t3.img");
  EXPECT_EQ(t1a, t1b) << "same-seed runs diverged";
  EXPECT_EQ(t1a, t3) << "image depends on num_threads";
}

INSTANTIATE_TEST_SUITE_P(PageSizes, DynamicOracleTest,
                         ::testing::Values(1024u, 4096u));

// --- Snapshot store with interleaved background reorganizations -------------
// The same differential-oracle discipline against the versioned snapshot
// store: a seeded mutation+query stream runs while background
// reorganizations build and swap in fully reclustered versions. Every
// query result must match the in-memory oracle regardless of where the
// swaps land, every acknowledged mutation must still be visible after each
// swap, and the whole acked history must survive closing and reopening the
// store (recovery = image + delta-log replay).

// Full-state audit of the session-visible store against the oracle.
void ExpectSessionMatchesOracle(ReadSession* session, const Network& net,
                                const std::string& where) {
  ASSERT_EQ(session->LiveNodeIds(), net.NodeIds()) << where;
  for (NodeId id : net.NodeIds()) {
    auto rec = session->Find(id);
    ASSERT_TRUE(rec.ok()) << where << ": node " << id << ": "
                          << rec.status().ToString();
    const NetworkNode& node = net.node(id);
    EXPECT_EQ(rec->x, node.x) << where << ": node " << id;
    EXPECT_EQ(rec->payload, node.payload) << where << ": node " << id;
    EXPECT_EQ(Sorted(rec->succ), Sorted(node.succ))
        << where << ": succ of " << id;
    EXPECT_EQ(Sorted(rec->pred), Sorted(node.pred))
        << where << ": pred of " << id;
  }
}

TEST(SnapshotOracleTest, NoDivergenceFromInMemoryReferenceAcrossReorgs) {
  SnapshotOptions sopt;
  sopt.am = MakeOptions(1024, 1995, 1);
  sopt.dir = TempPath("ccam_snap_oracle_store");
  std::error_code ec;
  std::filesystem::remove_all(sopt.dir, ec);

  Network net = GenerateRandomGeometricNetwork(64, /*radius=*/200.0,
                                               /*extent=*/1000.0, 1995);
  auto created = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  SnapshotManager* mgr = created->get();
  std::unique_ptr<ReadSession> session = mgr->OpenSession();

  const int ops = EnvInt("CCAM_ORACLE_OPS", 1500);
  Random rng(1995 * 0x9e3779b97f4a7c15ULL + 1);
  NodeId next_id = 0;
  for (NodeId id : net.NodeIds()) next_id = std::max(next_id, id + 1);
  int reorgs_started = 0;
  for (int i = 0; i < ops; ++i) {
    std::vector<NodeId> live = net.NodeIds();
    ASSERT_FALSE(live.empty());
    auto pick = [&] {
      return live[rng.Uniform(static_cast<uint32_t>(live.size()))];
    };
    uint32_t kind = rng.Uniform(100);
    std::string where = "op " + std::to_string(i);
    if (kind < 18) {
      DeltaRecord rec;
      rec.kind = DeltaRecord::Kind::kInsertNode;
      rec.node.id = next_id++;
      rec.node.x = rng.NextDouble() * 1000.0;
      rec.node.y = rng.NextDouble() * 1000.0;
      rec.node.payload = std::string(1 + rng.Uniform(24), 'p');
      NodeId a = pick();
      float ca = 1.0f + static_cast<float>(rng.Uniform(9));
      rec.node.succ.push_back({a, ca});
      rec.node.pred.push_back({a, ca});
      ASSERT_TRUE(mgr->InsertNode(rec.node).ok()) << where;
      ASSERT_TRUE(SnapshotManager::ApplyMutation(&net, rec).ok()) << where;
    } else if (kind < 30) {
      NodeId victim = pick();
      ASSERT_TRUE(mgr->DeleteNode(victim).ok()) << where;
      ASSERT_TRUE(net.RemoveNode(victim).ok());
    } else if (kind < 48) {
      NodeId u = pick();
      NodeId v = pick();
      float cost = 1.0f + static_cast<float>(rng.Uniform(9));
      Status st = mgr->InsertEdge(u, v, cost);
      if (u == v || net.HasEdge(u, v)) {
        // The oracle predicts rejection; the store must agree.
        EXPECT_FALSE(st.ok()) << where;
      } else {
        ASSERT_TRUE(st.ok()) << where << ": " << st.ToString();
        ASSERT_TRUE(net.AddEdge(u, v, cost).ok());
      }
    } else if (kind < 58) {
      NodeId u = pick();
      const auto& succ = net.node(u).succ;
      if (succ.empty()) {
        EXPECT_TRUE(mgr->DeleteEdge(u, u + 1000000).IsNotFound()) << where;
        continue;
      }
      NodeId v = succ[rng.Uniform(static_cast<uint32_t>(succ.size()))].node;
      ASSERT_TRUE(mgr->DeleteEdge(u, v).ok()) << where;
      ASSERT_TRUE(net.RemoveEdge(u, v).ok());
    } else if (kind < 75) {
      // Query ops refresh first — the serve layer's batch-boundary
      // contract: a session sees every mutation acked before its refresh,
      // however many background swaps landed in between.
      session->Refresh();
      NodeId id = pick();
      auto rec = session->Find(id);
      ASSERT_TRUE(rec.ok()) << where << ": " << rec.status().ToString();
      EXPECT_EQ(Sorted(rec->succ), OracleSucc(net, id)) << where;
    } else if (kind < 82) {
      session->Refresh();
      EXPECT_TRUE(
          session->Find(next_id + 1 + rng.Uniform(1000)).status().IsNotFound())
          << where;
    } else {
      session->Refresh();
      NodeId id = pick();
      auto succs = session->GetSuccessors(id);
      ASSERT_TRUE(succs.ok()) << where << ": " << succs.status().ToString();
      std::vector<NodeId> got;
      for (const NodeRecord& r : *succs) got.push_back(r.id);
      std::sort(got.begin(), got.end());
      std::vector<NodeId> want;
      for (const AdjEntry& e : net.node(id).succ) want.push_back(e.node);
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << where;
    }
    // Interleave background reorganizations: kick one off every ~150 ops,
    // right in the middle of the mutation stream.
    if (i % 150 == 25 && !mgr->ReorgActive()) {
      Status st = mgr->StartBackgroundReorg();
      ASSERT_TRUE(st.ok() || st.IsAlreadyExists()) << st.ToString();
      if (st.ok()) ++reorgs_started;
    }
    // Periodically drain the swap and audit the complete state: every
    // mutation acked before the swap must still be visible after it.
    if (i % 500 == 499) {
      ASSERT_TRUE(mgr->WaitForReorg().ok());
      session->Refresh();
      ExpectSessionMatchesOracle(session.get(), net, where + " (post-swap)");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ASSERT_TRUE(mgr->WaitForReorg().ok());
  EXPECT_GT(reorgs_started, 0) << "workload never exercised a swap";
  EXPECT_GE(mgr->ReorgCount(), static_cast<uint64_t>(reorgs_started));
  session->Refresh();
  ExpectSessionMatchesOracle(session.get(), net, "final");
  ASSERT_TRUE(mgr->CheckConsistency().ok());

  // Acked mutations must also survive closing and recovering the store:
  // reopen from disk alone and audit against the same oracle.
  session.reset();
  created->reset();
  auto reopened = SnapshotManager::Open(sopt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<ReadSession> again = (*reopened)->OpenSession();
  ExpectSessionMatchesOracle(again.get(), net, "reopened");
  ASSERT_TRUE((*reopened)->CheckConsistency().ok());
}

}  // namespace
}  // namespace ccam
