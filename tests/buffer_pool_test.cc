#include "src/storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>

namespace ccam {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : disk_(64), pool_(&disk_, 3) {}

  PageId NewFormattedPage(char fill) {
    PageId id;
    char* data = nullptr;
    EXPECT_TRUE(pool_.NewPage(&id, &data).ok());
    std::memset(data, fill, 64);
    EXPECT_TRUE(pool_.UnpinPage(id, true).ok());
    return id;
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, NewPageRequiresNoRead) {
  NewFormattedPage('a');
  EXPECT_EQ(disk_.stats().reads, 0u);
}

TEST_F(BufferPoolTest, FetchHitAvoidsDiskRead) {
  PageId p = NewFormattedPage('a');
  uint64_t reads0 = disk_.stats().reads;
  auto res = pool_.FetchPage(p);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ((*res)[0], 'a');
  EXPECT_EQ(disk_.stats().reads, reads0);  // still buffered
  EXPECT_EQ(pool_.hits(), 1u);
  (void)pool_.UnpinPage(p, false);
}

TEST_F(BufferPoolTest, LruEvictionOrder) {
  PageId a = NewFormattedPage('a');
  PageId b = NewFormattedPage('b');
  PageId c = NewFormattedPage('c');
  EXPECT_EQ(pool_.NumBuffered(), 3u);
  // Touch a so b becomes the LRU.
  auto res = pool_.FetchPage(a);
  ASSERT_TRUE(res.ok());
  (void)pool_.UnpinPage(a, false);
  // Fourth page evicts b.
  PageId d = NewFormattedPage('d');
  EXPECT_TRUE(pool_.Contains(a));
  EXPECT_FALSE(pool_.Contains(b));
  EXPECT_TRUE(pool_.Contains(c));
  EXPECT_TRUE(pool_.Contains(d));
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  PageId a = NewFormattedPage('a');
  uint64_t writes0 = disk_.stats().writes;
  NewFormattedPage('b');
  NewFormattedPage('c');
  NewFormattedPage('d');  // evicts a (dirty) -> one write
  EXPECT_FALSE(pool_.Contains(a));
  EXPECT_GE(disk_.stats().writes, writes0 + 1);
  // Re-fetch reads the written contents from disk.
  auto res = pool_.FetchPage(a);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ((*res)[0], 'a');
  (void)pool_.UnpinPage(a, false);
}

TEST_F(BufferPoolTest, CleanEvictionSkipsWrite) {
  PageId a = NewFormattedPage('a');
  ASSERT_TRUE(pool_.FlushPage(a).ok());  // now clean
  uint64_t writes0 = disk_.stats().writes;
  NewFormattedPage('b');
  NewFormattedPage('c');
  NewFormattedPage('d');
  EXPECT_FALSE(pool_.Contains(a));
  EXPECT_EQ(disk_.stats().writes, writes0);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  PageId a;
  char* data = nullptr;
  ASSERT_TRUE(pool_.NewPage(&a, &data).ok());  // keep pinned
  NewFormattedPage('b');
  NewFormattedPage('c');
  NewFormattedPage('d');  // must evict b or c, not a
  EXPECT_TRUE(pool_.Contains(a));
  (void)pool_.UnpinPage(a, true);
}

TEST_F(BufferPoolTest, AllPinnedFails) {
  PageId p1, p2, p3, p4;
  char* d = nullptr;
  ASSERT_TRUE(pool_.NewPage(&p1, &d).ok());
  ASSERT_TRUE(pool_.NewPage(&p2, &d).ok());
  ASSERT_TRUE(pool_.NewPage(&p3, &d).ok());
  EXPECT_TRUE(pool_.NewPage(&p4, &d).IsNoSpace());
  (void)pool_.UnpinPage(p1, false);
  EXPECT_TRUE(pool_.NewPage(&p4, &d).ok());
  (void)pool_.UnpinPage(p4, true);
  (void)pool_.UnpinPage(p2, true);
  (void)pool_.UnpinPage(p3, true);
}

TEST_F(BufferPoolTest, UnpinErrors) {
  EXPECT_TRUE(pool_.UnpinPage(99, false).IsInvalidArgument());
  PageId a = NewFormattedPage('a');
  EXPECT_TRUE(pool_.UnpinPage(a, false).IsInvalidArgument());  // already 0
}

TEST_F(BufferPoolTest, PinCountNesting) {
  PageId a = NewFormattedPage('a');
  auto r1 = pool_.FetchPage(a);
  auto r2 = pool_.FetchPage(a);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(pool_.PinCount(a), 2);
  (void)pool_.UnpinPage(a, false);
  EXPECT_EQ(pool_.PinCount(a), 1);
  (void)pool_.UnpinPage(a, false);
  EXPECT_EQ(pool_.PinCount(a), 0);
}

TEST_F(BufferPoolTest, FlushAllClearsDirtyBits) {
  PageId a = NewFormattedPage('a');
  PageId b = NewFormattedPage('b');
  uint64_t writes0 = disk_.stats().writes;
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_EQ(disk_.stats().writes, writes0 + 2);
  ASSERT_TRUE(pool_.FlushAll().ok());  // second flush: nothing dirty
  EXPECT_EQ(disk_.stats().writes, writes0 + 2);
  (void)a;
  (void)b;
}

TEST_F(BufferPoolTest, ResetFlushesAndEmpties) {
  PageId a = NewFormattedPage('a');
  ASSERT_TRUE(pool_.Reset().ok());
  EXPECT_EQ(pool_.NumBuffered(), 0u);
  auto res = pool_.FetchPage(a);  // re-read from disk
  ASSERT_TRUE(res.ok());
  EXPECT_EQ((*res)[0], 'a');
  (void)pool_.UnpinPage(a, false);
}

TEST_F(BufferPoolTest, DiscardDropsWithoutWriting) {
  PageId a = NewFormattedPage('a');
  ASSERT_TRUE(pool_.FlushPage(a).ok());
  // Dirty it again, then discard: the change must be lost.
  auto res = pool_.FetchPage(a);
  ASSERT_TRUE(res.ok());
  (*res)[0] = 'Z';
  (void)pool_.UnpinPage(a, true);
  pool_.Discard(a);
  EXPECT_FALSE(pool_.Contains(a));
  auto res2 = pool_.FetchPage(a);
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ((*res2)[0], 'a');
  (void)pool_.UnpinPage(a, false);
}

TEST(PageGuardTest, GuardsPinAndUnpin) {
  DiskManager disk(64);
  BufferPool pool(&disk, 2);
  PageId p;
  char* data = nullptr;
  ASSERT_TRUE(pool.NewPage(&p, &data).ok());
  data[0] = 'g';
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());
  {
    PageGuard guard(&pool, p);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard.data()[0], 'g');
    EXPECT_EQ(pool.PinCount(p), 1);
    guard.data()[0] = 'h';
    guard.MarkDirty();
  }
  EXPECT_EQ(pool.PinCount(p), 0);
  ASSERT_TRUE(pool.FlushPage(p).ok());
  char buf[64];
  ASSERT_TRUE(disk.ReadPage(p, buf).ok());
  EXPECT_EQ(buf[0], 'h');
}

TEST(PageGuardTest, MoveTransfersOwnership) {
  DiskManager disk(64);
  BufferPool pool(&disk, 2);
  PageId p;
  char* data = nullptr;
  ASSERT_TRUE(pool.NewPage(&p, &data).ok());
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());
  PageGuard a(&pool, p);
  ASSERT_TRUE(a.ok());
  PageGuard b(std::move(a));
  EXPECT_FALSE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(pool.PinCount(p), 1);
  b.Release();
  EXPECT_EQ(pool.PinCount(p), 0);
}

TEST(PageGuardTest, DoubleReleaseIsIdempotent) {
  DiskManager disk(64);
  BufferPool pool(&disk, 2);
  PageId p;
  char* data = nullptr;
  ASSERT_TRUE(pool.NewPage(&p, &data).ok());
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());
  PageGuard guard(&pool, p);
  ASSERT_TRUE(guard.ok());
  guard.Release();
  EXPECT_FALSE(guard.ok());
  EXPECT_EQ(pool.PinCount(p), 0);
  guard.Release();  // second release must not double-unpin
  EXPECT_EQ(pool.PinCount(p), 0);
}

TEST(PageGuardTest, MovedFromGuardIsInert) {
  DiskManager disk(64);
  BufferPool pool(&disk, 2);
  PageId p;
  char* data = nullptr;
  ASSERT_TRUE(pool.NewPage(&p, &data).ok());
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());
  {
    PageGuard a(&pool, p);
    PageGuard b(std::move(a));
    a.Release();  // releasing the moved-from shell does nothing
    EXPECT_EQ(pool.PinCount(p), 1);
  }  // both destroyed: exactly one unpin
  EXPECT_EQ(pool.PinCount(p), 0);
}

TEST(PageGuardTest, MoveAssignOverLiveGuardReleasesTarget) {
  DiskManager disk(64);
  BufferPool pool(&disk, 4);
  PageId p, q;
  char* data = nullptr;
  ASSERT_TRUE(pool.NewPage(&p, &data).ok());
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());
  ASSERT_TRUE(pool.NewPage(&q, &data).ok());
  ASSERT_TRUE(pool.UnpinPage(q, true).ok());
  PageGuard a(&pool, p);
  PageGuard b(&pool, q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  b = std::move(a);  // must unpin q, take over p's pin
  EXPECT_EQ(pool.PinCount(p), 1);
  EXPECT_EQ(pool.PinCount(q), 0);
  EXPECT_EQ(b.id(), p);
  b.Release();
  EXPECT_EQ(pool.PinCount(p), 0);
}

TEST(PageGuardTest, DestructionAfterPoolResetIsHarmless) {
  DiskManager disk(64);
  BufferPool pool(&disk, 2);
  PageId p;
  char* data = nullptr;
  ASSERT_TRUE(pool.NewPage(&p, &data).ok());
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());
  {
    PageGuard guard(&pool, p);
    ASSERT_TRUE(guard.ok());
    // The guard still holds a pin, so Reset()'s flush sees a pinned frame;
    // release the pin state out from under the guard via Discard-free path:
    // unpin manually, then Reset, then let the guard destruct.
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
    ASSERT_TRUE(pool.Reset().ok());
    EXPECT_EQ(pool.NumBuffered(), 0u);
  }  // guard dtor unpins an unbuffered page: swallowed, no crash
  EXPECT_EQ(pool.NumBuffered(), 0u);
}

TEST(PageGuardTest, ChargesIoOnlyOnMiss) {
  DiskManager disk(64);
  BufferPool pool(&disk, 2);
  PageId p;
  char* data = nullptr;
  ASSERT_TRUE(pool.NewPage(&p, &data).ok());
  ASSERT_TRUE(pool.UnpinPage(p, true).ok());
  ASSERT_TRUE(pool.Reset().ok());  // p now on disk only
  IoStats io;
  {
    PageGuard miss(&pool, p, &io);
    ASSERT_TRUE(miss.ok());
  }
  EXPECT_EQ(io.reads, 1u);
  {
    PageGuard hit(&pool, p, &io);
    ASSERT_TRUE(hit.ok());
  }
  EXPECT_EQ(io.reads, 1u);  // hit: no charge
}

TEST(ShardedBufferPoolTest, SmallPoolsCollapseToOneShard) {
  // Every paper experiment uses pools of at most a few pages; they must
  // keep the classic single-shard replacement behavior.
  EXPECT_EQ(BufferPool::AutoShardCount(1), 1u);
  EXPECT_EQ(BufferPool::AutoShardCount(8), 1u);
  EXPECT_EQ(BufferPool::AutoShardCount(15), 1u);
  DiskManager disk(64);
  BufferPool pool(&disk, 8);
  EXPECT_EQ(pool.num_shards(), 1u);
}

TEST(ShardedBufferPoolTest, ExplicitShardsSplitCapacity) {
  DiskManager disk(64);
  BufferPool pool(&disk, 32, ReplacementPolicy::kLru, 4);
  EXPECT_EQ(pool.num_shards(), 4u);
  EXPECT_EQ(pool.capacity(), 32u);
  // All pages fetchable; counters aggregate across shards.
  std::vector<PageId> ids;
  for (int i = 0; i < 32; ++i) ids.push_back(*disk.AllocatePage());
  for (PageId id : ids) {
    auto res = pool.FetchPage(id);
    ASSERT_TRUE(res.ok());
    ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  }
  EXPECT_EQ(pool.misses(), 32u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.NumBuffered(), 32u);
  for (PageId id : ids) {
    auto res = pool.FetchPage(id);
    ASSERT_TRUE(res.ok());
    ASSERT_TRUE(pool.UnpinPage(id, false).ok());
  }
  EXPECT_EQ(pool.hits(), 32u);
}

TEST(ShardedBufferPoolTest, ShardCountClampedToCapacity) {
  DiskManager disk(64);
  BufferPool pool(&disk, 2, ReplacementPolicy::kLru, 16);
  EXPECT_EQ(pool.num_shards(), 2u);
}

TEST(ShardedBufferPoolTest, MinShardCapacityIsTheSmallestShard) {
  DiskManager disk(64);
  BufferPool pool(&disk, 17, ReplacementPolicy::kLru, 2);  // 9 + 8 frames
  EXPECT_EQ(pool.MinShardCapacity(), 8u);
}

TEST(ShardedBufferPoolTest, TrackedFetchReportsMiss) {
  DiskManager disk(64);
  BufferPool pool(&disk, 4);
  PageId p = *disk.AllocatePage();
  bool was_miss = false;
  auto res = pool.FetchPage(p, &was_miss);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(was_miss);
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  res = pool.FetchPage(p, &was_miss);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(was_miss);
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
}

}  // namespace
}  // namespace ccam
