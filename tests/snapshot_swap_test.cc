// Concurrency battery for the versioned snapshot swap: many reader
// threads hammer sessions while the writer runs back-to-back full
// reorganizations, each publishing a new version with an atomic
// pointer swap. The assertions pin down the store's three public
// promises:
//
//   * isolation  — a session pinned to a version sees that version's
//     frozen node set, readable in full, no matter how many swaps land
//     mid-iteration;
//   * conservation — every session acquire is matched by exactly one
//     release, and retired versions drain to LiveVersionCount == 1
//     once the last session closes;
//   * availability — reads (and their IoStats accounting) are
//     bit-identical whether or not a background build is in flight,
//     and a reader holding a page pin never blocks a swap.
//
// Registered in scripts/check_tsan.sh: the hammer runs under TSan to
// catch ordering bugs the assertions cannot.

#include "src/storage/snapshot_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/generator.h"

namespace ccam {
namespace {

SnapshotOptions OptionsFor(const std::string& leaf) {
  SnapshotOptions sopt;
  sopt.am.page_size = 1024;
  sopt.am.buffer_pool_pages = 8;
  sopt.am.num_threads = 1;
  const char* tmp = std::getenv("TMPDIR");
  sopt.dir = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + leaf;
  std::error_code ec;
  std::filesystem::remove_all(sopt.dir, ec);
  return sopt;
}

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

// 8 reader threads churn sessions while the main thread interleaves
// mutations with >= 50 synchronous reorganizations. Each reader
// iteration validates snapshot isolation the hard way: every id the
// pinned version lists as live must Find() OK for as long as the
// session holds the version — even when several swaps land while the
// scan is in progress.
TEST(SnapshotSwapTest, EightReadersAcrossFiftyBackToBackSwaps) {
  const int kReaders = 8;
  const int kSwaps = EnvInt("CCAM_SWAP_COUNT", 50);

  SnapshotOptions sopt = OptionsFor("ccam_swap_hammer_store");
  Network net = GenerateRandomGeometricNetwork(160, 130.0, 1000.0, 1995);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([store, t, &stop, &reads, &failures] {
      uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Sessions are thread-bound; each iteration opens a fresh one,
        // which also exercises acquire/release under concurrent swaps.
        std::unique_ptr<ReadSession> session = store->OpenSession();
        std::vector<NodeId> ids = session->LiveNodeIds();
        if (ids.empty()) {
          ++failures;
          break;
        }
        // A strided sample keeps iterations short enough that many
        // swaps land per session lifetime across the run.
        for (size_t i = t % 7; i < ids.size(); i += 7) {
          auto rec = session->Find(ids[i]);
          if (!rec.ok()) {
            ADD_FAILURE() << "reader " << t << ": live node " << ids[i]
                          << " unreadable in pinned version "
                          << session->version_id() << ": "
                          << rec.status().ToString();
            ++failures;
            stop.store(true, std::memory_order_release);
            break;
          }
          ++local;
        }
        // Half the iterations migrate to the current version mid-life,
        // so refresh-during-swap gets coverage too.
        if (local % 2 == 0) session->Refresh();
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // Writer: mutate, then swap — back to back, no quiescing.
  NodeId next_id = 0;
  for (NodeId id : net.NodeIds()) next_id = std::max(next_id, id + 1);
  std::vector<NodeId> anchors = net.NodeIds();
  for (int s = 0; s < kSwaps; ++s) {
    NodeRecord rec;
    rec.id = next_id++;
    rec.x = static_cast<double>(s);
    rec.y = -1.0;
    rec.succ.push_back({anchors[s % anchors.size()], 1.0f});
    ASSERT_TRUE(store->InsertNode(rec).ok());
    ASSERT_TRUE(store->ReorganizeNow().ok()) << "swap " << s;
  }

  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store->ReorgCount(), static_cast<uint64_t>(kSwaps));
  // Version 1 was the initial publication; every swap adds one.
  EXPECT_EQ(store->CurrentVersionId(), static_cast<uint64_t>(1 + kSwaps));

  // Conservation: with every session closed, each acquire has exactly
  // one matching release and every retired version has drained.
  EXPECT_EQ(store->TotalAcquires(), store->TotalReleases());
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  ASSERT_TRUE(store->CheckConsistency().ok());
}

// Retired versions drain in session-close order, not publish order.
TEST(SnapshotSwapTest, RetiredVersionsDrainAsSessionsClose) {
  SnapshotOptions sopt = OptionsFor("ccam_swap_drain_store");
  Network net = GenerateRandomGeometricNetwork(80, 180.0, 1000.0, 7);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();

  std::unique_ptr<ReadSession> s1 = store->OpenSession();
  ASSERT_TRUE(store->ReorganizeNow().ok());
  std::unique_ptr<ReadSession> s2 = store->OpenSession();
  ASSERT_TRUE(store->ReorganizeNow().ok());
  std::unique_ptr<ReadSession> s3 = store->OpenSession();

  EXPECT_EQ(s1->version_id(), 1u);
  EXPECT_EQ(s2->version_id(), 2u);
  EXPECT_EQ(s3->version_id(), 3u);
  EXPECT_EQ(store->LiveVersionCount(), 3u);

  // Close the middle session first: its version drains while the
  // older one stays alive — retirement is refcount-driven, not FIFO.
  s2.reset();
  EXPECT_EQ(store->LiveVersionCount(), 2u);
  EXPECT_TRUE(s1->Find(net.NodeIds().front()).ok());
  s1.reset();
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  s3.reset();
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  EXPECT_EQ(store->TotalAcquires(), store->TotalReleases());
}

// The availability guarantee, measured at the accounting level: a
// session's query results AND its per-session IoStats are bit-identical
// whether a background build is provably in flight or the store is
// quiescent. Two stores created from the same network run the same read
// script; one has a gated reorganization parked mid-build.
TEST(SnapshotSwapTest, GatedBuildKeepsReadsAndIoStatsBitIdentical) {
  Network net = GenerateRandomGeometricNetwork(160, 130.0, 1000.0, 1995);

  SnapshotOptions quiet_opt = OptionsFor("ccam_swap_quiet_store");
  SnapshotOptions busy_opt = OptionsFor("ccam_swap_busy_store");
  auto quiet = SnapshotManager::Create(quiet_opt, net);
  auto busy = SnapshotManager::Create(busy_opt, net);
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();

  // Identical acked mutations on both stores, so the overlays match.
  std::vector<NodeId> ids = net.NodeIds();
  for (int i = 0; i < 10; ++i) {
    NodeRecord rec;
    rec.id = 100000 + static_cast<NodeId>(i);
    rec.x = static_cast<double>(i);
    rec.y = 2.0;
    rec.succ.push_back({ids[i], 1.0f});
    ASSERT_TRUE((*quiet)->InsertNode(rec).ok());
    ASSERT_TRUE((*busy)->InsertNode(rec).ok());
  }

  // Park a build mid-flight on the busy store: it completes the
  // reclustering, then blocks before publish until released.
  (*busy)->GatePublish(true);
  ASSERT_TRUE((*busy)->StartBackgroundReorg().ok());

  std::unique_ptr<ReadSession> qs = (*quiet)->OpenSession();
  std::unique_ptr<ReadSession> bs = (*busy)->OpenSession();
  ASSERT_TRUE((*busy)->ReorgActive());

  std::vector<NodeId> live = qs->LiveNodeIds();
  ASSERT_EQ(live, bs->LiveNodeIds());
  for (NodeId id : live) {
    auto want = qs->Find(id);
    auto got = bs->Find(id);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->id, want->id);
    EXPECT_EQ(got->x, want->x);
    EXPECT_EQ(got->succ.size(), want->succ.size());
    auto succ_want = qs->GetSuccessors(id);
    auto succ_got = bs->GetSuccessors(id);
    ASSERT_TRUE(succ_want.ok());
    ASSERT_TRUE(succ_got.ok());
    ASSERT_EQ(succ_got->size(), succ_want->size());
    for (size_t i = 0; i < succ_want->size(); ++i) {
      EXPECT_EQ((*succ_got)[i].id, (*succ_want)[i].id);
    }
  }

  // The accounting must match to the bit: the build reads only the
  // reorganizer's in-memory cut, never the serving version's pages.
  EXPECT_EQ(bs->DataIoStats().reads, qs->DataIoStats().reads);
  EXPECT_EQ(bs->DataIoStats().writes, qs->DataIoStats().writes);
  EXPECT_EQ(bs->DataIoStats().Accesses(), qs->DataIoStats().Accesses());

  ASSERT_TRUE((*busy)->ReorgActive());  // still parked through all reads
  (*busy)->ReleasePublishGate();
  ASSERT_TRUE((*busy)->WaitForReorg().ok());
  EXPECT_EQ((*busy)->CurrentVersionId(), 2u);
  bs->Refresh();
  EXPECT_EQ(bs->version_id(), 2u);
  ASSERT_TRUE((*busy)->CheckConsistency().ok());
}

// Regression for the in-place reorganizers' exclusivity assumption: a
// reader holding a live page pin must never block a swap. The pin holds
// a frame in the *old* version's private buffer pool; the swap installs
// a new version with its own pool, so the two never contend.
TEST(SnapshotSwapTest, ReaderHoldingPagePinNeverBlocksSwap) {
  SnapshotOptions sopt = OptionsFor("ccam_swap_pin_store");
  Network net = GenerateRandomGeometricNetwork(120, 150.0, 1000.0, 11);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();

  std::unique_ptr<ReadSession> session = store->OpenSession();
  uint64_t v_before = session->version_id();
  PageId pinned = session->PageMap().begin()->second;
  PageGuard guard(session->buffer_pool(), pinned, nullptr);
  ASSERT_TRUE(guard.ok()) << guard.status().ToString();

  // Same thread, pin held: if the swap needed the old version quiesced
  // (or its pages unpinned), this call would deadlock or fail.
  ASSERT_TRUE(store->ReorganizeNow().ok());
  EXPECT_GT(store->CurrentVersionId(), v_before);

  // The pinned frame is still valid — the old version stays alive until
  // this session releases it — and reads through the pin's session
  // keep working.
  EXPECT_TRUE(guard.ok());
  EXPECT_TRUE(session->Find(net.NodeIds().front()).ok());
  EXPECT_EQ(session->version_id(), v_before);

  guard = PageGuard();  // release the pin, then migrate
  session->Refresh();
  EXPECT_GT(session->version_id(), v_before);
  session.reset();
  EXPECT_EQ(store->LiveVersionCount(), 1u);
  EXPECT_EQ(store->TotalAcquires(), store->TotalReleases());
  ASSERT_TRUE(store->CheckConsistency().ok());
}

}  // namespace
}  // namespace ccam
