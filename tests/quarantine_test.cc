// Corruption containment tests: the buffer pool's bounded re-read of a
// failing page fetch (transient faults are rescued, persistent damage is
// quarantined), fast-fail of quarantined pages without re-paying the
// doomed I/O, the scrub/repair pass, the storage.quarantine.* metrics,
// and IoStats conservation in the presence of failed reads.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/common/metrics.h"
#include "src/core/ccam.h"
#include "src/core/read_session.h"
#include "src/graph/generator.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"
#include "src/storage/page_quarantine.h"

namespace ccam {
namespace {

// --- PageQuarantine unit behavior ----------------------------------------

TEST(PageQuarantineTest, EmptySetPassesEveryCheck) {
  PageQuarantine q;
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.Contains(7));
  EXPECT_TRUE(q.Check(7).ok());
}

TEST(PageQuarantineTest, AddCheckClearLifecycle) {
  PageQuarantine q;
  q.Add(7, "checksum mismatch");
  q.Add(7, "a later reason that must not win");  // idempotent
  q.Add(9, "short read");
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.Contains(7));

  Status s = q.Check(7);
  EXPECT_TRUE(s.IsQuarantined()) << s.ToString();
  EXPECT_NE(s.message().find("page 7"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("checksum mismatch"), std::string::npos);
  EXPECT_EQ(s.message().find("later reason"), std::string::npos);

  auto entries = q.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 7u);  // ascending page id
  EXPECT_EQ(entries[1].first, 9u);

  EXPECT_TRUE(q.Clear(7));
  EXPECT_FALSE(q.Clear(7));  // already gone
  EXPECT_TRUE(q.Check(7).ok());
  q.ClearAll();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.Check(9).ok());
}

TEST(PageQuarantineTest, MetricsCountEveryTransition) {
  MetricsRegistry metrics;
  PageQuarantine q;
  q.SetMetrics(&metrics);
  q.Add(1, "bad");
  q.Add(1, "bad again");  // no-op: not a new entry
  q.Add(2, "bad");
  (void)q.Check(1);       // fastfail
  (void)q.Check(99);      // clean: no fastfail
  q.NoteRetrySuccess();
  EXPECT_TRUE(q.Clear(1));
  EXPECT_EQ(metrics.GetCounter("storage.quarantine.added")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("storage.quarantine.fastfail")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("storage.quarantine.cleared")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("storage.quarantine.retry_success")->value(),
            1u);
  EXPECT_EQ(metrics.GetGauge("storage.quarantine.size")->value(), 1);
}

TEST(PageQuarantineTest, GaugeSyncsToLiveSetOnAttach) {
  // Regression: attaching metrics after pages were already quarantined
  // left the size gauge stale at zero; the next Clear then published a
  // negative-walking value that read like an underflow. SetMetrics now
  // syncs the gauge to the live set.
  PageQuarantine q;
  q.Add(3, "bad");
  q.Add(4, "bad");
  MetricsRegistry metrics;
  q.SetMetrics(&metrics);
  EXPECT_EQ(metrics.GetGauge("storage.quarantine.size")->value(), 2);
  EXPECT_TRUE(q.Clear(3));
  EXPECT_EQ(metrics.GetGauge("storage.quarantine.size")->value(), 1);
  EXPECT_GE(metrics.GetGauge("storage.quarantine.size")->value(), 0);
}

// 8 threads race Add / Clear / ClearAll / Check over a small page-id
// space, maximizing duplicate adds and clears of absent pages. The
// conservation ledger must balance exactly — idempotent no-ops touch
// nothing — and the gauge must equal the surviving set. Run under TSan
// via scripts/check_tsan.sh.
TEST(PageQuarantineTest, EightThreadHammerConservesAddedMinusCleared) {
  MetricsRegistry metrics;
  PageQuarantine q;
  q.SetMetrics(&metrics);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr PageId kPages = 17;  // small space: plenty of collisions
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&q, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        PageId id = static_cast<PageId>((rng >> 33) % kPages);
        switch ((rng >> 60) & 3) {
          case 0:
            q.Add(id, "hammer");
            break;
          case 1:
            q.Clear(id);
            break;
          case 2:
            (void)q.Check(id);
            break;
          default:
            if (i % 512 == 0) {
              q.ClearAll();
            } else {
              q.Add(id, "hammer");
            }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(q.added() - q.cleared(), q.size());
  EXPECT_EQ(q.Entries().size(), q.size());
  EXPECT_EQ(metrics.GetGauge("storage.quarantine.size")->value(),
            static_cast<int64_t>(q.size()));
  EXPECT_EQ(metrics.GetCounter("storage.quarantine.added")->value(),
            q.added());
  EXPECT_EQ(metrics.GetCounter("storage.quarantine.cleared")->value(),
            q.cleared());
  EXPECT_GT(q.added(), 0u);
}

// --- Bounded re-read at the buffer pool ----------------------------------

class PoolRetryTest : public ::testing::Test {
 protected:
  PoolRetryTest() : faults_(11), disk_(64), pool_(&disk_, 2) {
    disk_.SetFaultInjector(&faults_);
    pool_.SetQuarantine(&quarantine_);
    quarantine_.SetMetrics(&metrics_);
  }

  // A written, flushed, evicted page: the next fetch is a genuine miss.
  PageId ColdPage(char fill) {
    PageId id;
    char* data = nullptr;
    EXPECT_TRUE(pool_.NewPage(&id, &data).ok());
    std::memset(data, fill, 64);
    EXPECT_TRUE(pool_.UnpinPage(id, true).ok());
    EXPECT_TRUE(pool_.FlushAll().ok());
    EXPECT_TRUE(pool_.Reset().ok());
    return id;
  }

  uint64_t Metric(const char* name) {
    return metrics_.GetCounter(name)->value();
  }

  MetricsRegistry metrics_;
  FaultInjector faults_;
  DiskManager disk_;
  BufferPool pool_;
  PageQuarantine quarantine_;
};

TEST_F(PoolRetryTest, TransientShortReadIsRescuedByRetry) {
  PageId p = ColdPage('a');
  // First read attempt returns a short transfer; the re-read succeeds.
  ASSERT_TRUE(faults_.Configure("disk.read=short:16@1").ok());
  auto res = pool_.FetchPage(p);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ((*res)[0], 'a');
  EXPECT_EQ((*res)[63], 'a');  // full content, not the torn prefix
  (void)pool_.UnpinPage(p, false);
  EXPECT_EQ(quarantine_.size(), 0u);
  EXPECT_EQ(Metric("storage.quarantine.retry_success"), 1u);
  EXPECT_EQ(Metric("storage.quarantine.added"), 0u);
}

TEST_F(PoolRetryTest, TransientIoErrorIsRescuedByRetry) {
  PageId p = ColdPage('b');
  ASSERT_TRUE(faults_.Configure("disk.read=error:io@1").ok());
  auto res = pool_.FetchPage(p);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  (void)pool_.UnpinPage(p, false);
  EXPECT_EQ(quarantine_.size(), 0u);
  EXPECT_EQ(Metric("storage.quarantine.retry_success"), 1u);
}

TEST_F(PoolRetryTest, PersistentCorruptionQuarantinesAfterBoundedRetries) {
  PageId p = ColdPage('c');
  // Tear the page's next write so its stored seal no longer matches: with
  // read verification on, every read of it fails Corruption — real platter
  // damage, not an injected error.
  ASSERT_TRUE(faults_.Configure("disk.write=torn:16@1").ok());
  {
    std::string next(64, 'd');
    EXPECT_FALSE(disk_.WritePage(p, next.data()).ok());
  }
  faults_.Reset();
  disk_.SetVerifyChecksums(true);

  // Count read attempts via an armed-but-never-firing failpoint.
  ASSERT_TRUE(faults_.Configure("disk.read=error@1000000").ok());
  auto res = pool_.FetchPage(p);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCorruption()) << res.status().ToString();
  // Initial read + the pool's default two re-reads.
  EXPECT_EQ(faults_.HitCount("disk.read"), 3u);
  ASSERT_EQ(quarantine_.size(), 1u);
  EXPECT_TRUE(quarantine_.Contains(p));
  EXPECT_EQ(Metric("storage.quarantine.added"), 1u);

  // The next fetch fails fast with a typed status and zero disk reads.
  auto again = pool_.FetchPage(p);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsQuarantined()) << again.status().ToString();
  EXPECT_EQ(faults_.HitCount("disk.read"), 3u);  // no new attempts
  EXPECT_EQ(Metric("storage.quarantine.fastfail"), 1u);

  // Failed reads never count as completed reads: conservation holds.
  EXPECT_EQ(disk_.stats().reads, 0u);
}

TEST_F(PoolRetryTest, PersistentIoErrorFailsWithoutQuarantining) {
  PageId p = ColdPage('e');
  // A device that always errors is transport trouble, not page damage:
  // the fetch fails typed IOError but nothing is quarantined (a later
  // fetch should retry the device rather than fast-fail forever).
  ASSERT_TRUE(faults_.Configure("disk.read=error:io@1+").ok());
  auto res = pool_.FetchPage(p);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsIOError()) << res.status().ToString();
  EXPECT_EQ(faults_.HitCount("disk.read"), 3u);  // retries were attempted
  EXPECT_EQ(quarantine_.size(), 0u);
  EXPECT_EQ(Metric("storage.quarantine.added"), 0u);
}

TEST_F(PoolRetryTest, ReadRetriesKnobBoundsTheAttempts) {
  pool_.SetReadRetries(0);
  PageId p = ColdPage('f');
  ASSERT_TRUE(faults_.Configure("disk.read=error:corruption@1+").ok());
  auto res = pool_.FetchPage(p);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCorruption());
  EXPECT_EQ(faults_.HitCount("disk.read"), 1u);  // no re-reads at all
  EXPECT_TRUE(quarantine_.Contains(p));
}

// --- NetworkFile-level quarantine + scrub --------------------------------

Network SmallNetwork() {
  RoadMapOptions gen;
  gen.rows = 12;
  gen.cols = 12;
  gen.nodes_to_remove = 4;
  gen.seed = 515;
  return GenerateRoadMap(gen);
}

TEST(NetworkFileQuarantineTest, InjectedCorruptionQuarantinesAndScrubHeals) {
  Network net = SmallNetwork();
  AccessMethodOptions options;
  options.page_size = 512;
  options.buffer_pool_pages = 4;
  Ccam file(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(file.Create(net).ok());

  MetricsRegistry metrics;
  file.SetMetrics(&metrics);
  FaultInjector faults(21);
  file.SetFaultInjector(&faults);

  // A data page that is currently not buffered: its fetch must hit disk.
  PageId victim = kInvalidPageId;
  NodeId victim_node = kInvalidNodeId;
  for (const auto& entry : file.PageMap()) {
    if (!file.buffer_pool()->Contains(entry.second)) {
      victim_node = entry.first;
      victim = entry.second;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidPageId);

  // Injected corruption on every read: the platter is intact, the
  // transport keeps returning damaged frames.
  ASSERT_TRUE(faults.Configure("disk.read=error:corruption@1+").ok());
  auto session = file.OpenSession();
  auto found = session->Find(victim_node);
  ASSERT_FALSE(found.ok());
  EXPECT_TRUE(found.status().IsCorruption()) << found.status().ToString();
  ASSERT_EQ(file.quarantine()->size(), 1u);
  EXPECT_TRUE(file.quarantine()->Contains(victim));

  // While quarantined, the same lookup fails fast with Quarantined.
  auto blocked = session->Find(victim_node);
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsQuarantined())
      << blocked.status().ToString();

  // Fault burst over; the scrub verifies the (undamaged) platter content
  // and releases the page.
  faults.Reset();
  size_t repaired = 0, remaining = 0;
  ASSERT_TRUE(file.ScrubQuarantined(&repaired, &remaining).ok());
  EXPECT_EQ(repaired, 1u);
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(file.quarantine()->size(), 0u);
  EXPECT_EQ(metrics.GetCounter("storage.quarantine.cleared")->value(), 1u);

  // Reads flow again, and the books balance: the successful fetch is the
  // only completed disk read charged to the session.
  IoStats before = file.DataIoStats();
  auto healed = session->Find(victim_node);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ((file.DataIoStats() - before).reads, 1u);
}

TEST(NetworkFileQuarantineTest, ScrubKeepsPagesThatStillFailVerification) {
  Network net = SmallNetwork();
  AccessMethodOptions options;
  options.page_size = 512;
  options.buffer_pool_pages = 4;
  Ccam file(options, CcamCreateMode::kStatic);
  ASSERT_TRUE(file.Create(net).ok());

  FaultInjector faults(22);
  file.SetFaultInjector(&faults);

  PageId victim = kInvalidPageId;
  for (const auto& entry : file.PageMap()) {
    if (!file.buffer_pool()->Contains(entry.second)) {
      victim = entry.second;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidPageId);

  // Genuine platter damage: tear a rewrite whose head DIFFERS from the
  // stored bytes, leaving modified-head/old-tail content under the stale
  // seal — read verification now fails.
  auto page = file.buffer_pool()->FetchPage(victim);
  ASSERT_TRUE(page.ok());
  std::vector<char> content(*page, *page + options.page_size);
  ASSERT_TRUE(file.buffer_pool()->UnpinPage(victim, false).ok());
  ASSERT_TRUE(file.buffer_pool()->Reset().ok());
  std::vector<char> mangled = content;
  for (size_t i = 0; i < 32; ++i) mangled[i] = static_cast<char>(~mangled[i]);
  ASSERT_TRUE(faults.Configure("disk.write=torn:32@1").ok());
  EXPECT_FALSE(file.disk()->WritePage(victim, mangled.data()).ok());
  faults.Reset();
  file.disk()->SetVerifyChecksums(true);

  auto res = file.buffer_pool()->FetchPage(victim);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCorruption());
  ASSERT_TRUE(file.quarantine()->Contains(victim));

  // The damage is real, so the scrub must NOT release the page.
  size_t repaired = 0, remaining = 0;
  ASSERT_TRUE(file.ScrubQuarantined(&repaired, &remaining).ok());
  EXPECT_EQ(repaired, 0u);
  EXPECT_EQ(remaining, 1u);
  EXPECT_TRUE(file.quarantine()->Contains(victim));

  // An out-of-band repair (rewrite reseals the page) plus scrub heals it.
  ASSERT_TRUE(file.disk()->WritePage(victim, content.data()).ok());
  ASSERT_TRUE(file.ScrubQuarantined(&repaired, &remaining).ok());
  EXPECT_EQ(repaired, 1u);
  EXPECT_EQ(remaining, 0u);
  auto healed = file.buffer_pool()->FetchPage(victim);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  (void)file.buffer_pool()->UnpinPage(victim, false);
}

}  // namespace
}  // namespace ccam
