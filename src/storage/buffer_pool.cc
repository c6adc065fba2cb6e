#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>

namespace ccam {

const char* ReplacementPolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kClock:
      return "clock";
  }
  return "unknown";
}

size_t BufferPool::AutoShardCount(size_t capacity) {
  size_t hw = std::max(1u, std::thread::hardware_concurrency());
  size_t by_capacity = std::max<size_t>(1, capacity / kMinFramesPerShard);
  return std::min({kMaxShards, hw, by_capacity});
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity,
                       ReplacementPolicy policy, size_t num_shards)
    : disk_(disk), capacity_(capacity), policy_(policy) {
  assert(capacity_ >= 1);
  size_t n = num_shards == 0 ? AutoShardCount(capacity_) : num_shards;
  n = std::clamp<size_t>(n, 1, capacity_);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    // Distribute the capacity as evenly as possible; the first
    // capacity % n shards take the remainder.
    shards_.back()->capacity = capacity_ / n + (i < capacity_ % n ? 1 : 0);
  }
}

void BufferPool::ListPushBack(Shard* shard, Frame* frame) {
  frame->prev = shard->tail;
  frame->next = nullptr;
  if (shard->tail != nullptr) {
    shard->tail->next = frame;
  } else {
    shard->head = frame;
  }
  shard->tail = frame;
}

void BufferPool::ListRemove(Shard* shard, Frame* frame) {
  if (shard->hand == frame) {
    // The CLOCK hand moves to the next frame in ring order, exactly as the
    // index adjustment of the former vector implementation did.
    shard->hand = frame->next != nullptr ? frame->next : shard->head;
    if (shard->hand == frame) shard->hand = nullptr;  // last frame removed
  }
  if (frame->prev != nullptr) {
    frame->prev->next = frame->next;
  } else {
    shard->head = frame->next;
  }
  if (frame->next != nullptr) {
    frame->next->prev = frame->prev;
  } else {
    shard->tail = frame->prev;
  }
  frame->prev = frame->next = nullptr;
}

void BufferPool::ListMoveToBack(Shard* shard, Frame* frame) {
  if (shard->tail == frame) return;
  ListRemove(shard, frame);
  ListPushBack(shard, frame);
}

Status BufferPool::EvictFrameLocked(Shard* shard, Frame* frame) {
  assert(frame->pin_count == 0);
  if (frame->dirty) {
    CCAM_RETURN_NOT_OK(disk_->WritePage(frame->id, frame->data.get()));
    if (m_writeback_ != nullptr) m_writeback_->Inc();
  }
  PageId id = frame->id;
  ListRemove(shard, frame);
  shard->frames.erase(id);
  if (m_eviction_ != nullptr) m_eviction_->Inc();
  return Status::OK();
}

Status BufferPool::EvictOneLocked(Shard* shard) {
  Frame* victim = nullptr;
  if (policy_ == ReplacementPolicy::kClock) {
    // Sweep the ring (list in load order), clearing reference bits; evict
    // the first unpinned unreferenced frame. Two full sweeps guarantee
    // progress when any frame is evictable.
    size_t n = shard->frames.size();
    Frame* cursor = shard->hand != nullptr ? shard->hand : shard->head;
    for (size_t step = 0; step < 2 * n && cursor != nullptr; ++step) {
      if (cursor->pin_count == 0) {
        if (cursor->ref_bit) {
          cursor->ref_bit = false;
        } else {
          victim = cursor;
          break;
        }
      }
      cursor = cursor->next != nullptr ? cursor->next : shard->head;
    }
    // The hand rests on the victim; ListRemove advances it to the next
    // frame, matching the unsharded implementation.
    if (victim != nullptr) shard->hand = victim;
  } else {
    // kLru: the list is in recency order, head coldest. kFifo: the list is
    // in load order, head oldest. Either way the first unpinned frame from
    // the head is the victim.
    for (Frame* f = shard->head; f != nullptr; f = f->next) {
      if (f->pin_count == 0) {
        victim = f;
        break;
      }
    }
  }
  if (victim == nullptr) {
    return Status::NoSpace("all buffer frames of the shard are pinned");
  }
  return EvictFrameLocked(shard, victim);
}

Result<char*> BufferPool::FetchPage(PageId id, bool* was_miss) {
  Shard& shard = ShardFor(id);
  std::unique_lock<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    Frame& frame = it->second;
    // Pin before any wait so the frame cannot be evicted under us.
    ++frame.pin_count;
    if (frame.io_pending) {
      shard.io_cv.wait(lock, [&frame] { return !frame.io_pending; });
    }
    if (frame.io_failed) {
      if (--frame.pin_count == 0) shard.frames.erase(id);
      return Status::IOError("concurrent read of page " + std::to_string(id) +
                             " failed");
    }
    ++shard.hits;
    if (m_hit_ != nullptr) m_hit_->Inc();
    frame.ref_bit = true;
    if (policy_ == ReplacementPolicy::kLru) ListMoveToBack(&shard, &frame);
    if (was_miss != nullptr) *was_miss = false;
    return frame.data.get();
  }
  // Quarantined pages fail fast before a frame or disk read is spent on
  // them: their reads already failed the bounded retries, so re-paying the
  // I/O would only stall this request behind a known-bad page.
  if (quarantine_ != nullptr) {
    CCAM_RETURN_NOT_OK(quarantine_->Check(id));
  }
  if (shard.frames.size() >= shard.capacity) {
    CCAM_RETURN_NOT_OK(EvictOneLocked(&shard));
  }
  Frame& frame = shard.frames[id];
  frame.id = id;
  frame.data = std::make_unique<char[]>(disk_->page_size());
  frame.pin_count = 1;
  frame.ref_bit = true;
  frame.io_pending = true;
  ListPushBack(&shard, &frame);
  // Read outside the latch: misses in flight overlap (the simulated disk
  // may model latency), and hits on other pages of the shard proceed.
  // The pin keeps the frame alive; followers of the same page wait on the
  // io_pending flag. `frame` stays valid across the unlock because
  // unordered_map never moves its nodes.
  lock.unlock();
  Status read_status = ReadWithRetry(id, frame.data.get());
  lock.lock();
  frame.io_pending = false;
  shard.io_cv.notify_all();
  if (!read_status.ok()) {
    frame.io_failed = true;
    ListRemove(&shard, &frame);
    if (--frame.pin_count == 0) shard.frames.erase(id);
    return read_status;
  }
  // The miss is counted only now — after its disk read completed and
  // under the shard latch — so a counter sample never sees a miss whose
  // read is still in flight (or one that subsequently failed), and
  // hits + misses always equals the successful fetches that returned.
  ++shard.misses;
  if (m_miss_ != nullptr) m_miss_->Inc();
  if (was_miss != nullptr) *was_miss = true;
  return frame.data.get();
}

Status BufferPool::ReadWithRetry(PageId id, char* data) {
  Status read_status = disk_->ReadPage(id, data);
  if (read_status.ok() || quarantine_ == nullptr) return read_status;
  // Only damage-shaped failures are worth re-reading: a torn transfer or a
  // checksum mismatch may be a transient fault (the injector's whole
  // point), while e.g. NotFound is deterministic.
  if (!read_status.IsCorruption() && !read_status.IsShortRead() &&
      !read_status.IsIOError()) {
    return read_status;
  }
  for (int attempt = 0; attempt < read_retries_; ++attempt) {
    Status retry_status = disk_->ReadPage(id, data);
    if (retry_status.ok()) {
      quarantine_->NoteRetrySuccess();
      return retry_status;
    }
    read_status = std::move(retry_status);
  }
  // Persistent damage: quarantine the page so later fetches fail fast
  // (this caller still sees the original typed failure). Device-level
  // IOError is not page damage — retried above, but never quarantined.
  if (read_status.IsCorruption() || read_status.IsShortRead()) {
    quarantine_->Add(id, read_status.ToString());
  }
  return read_status;
}

Status BufferPool::UnpinPage(PageId id, bool dirty) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) {
    return Status::InvalidArgument("unpin of unbuffered page " +
                                   std::to_string(id));
  }
  Frame& frame = it->second;
  if (frame.pin_count <= 0) {
    return Status::InvalidArgument("unpin of unpinned page " +
                                   std::to_string(id));
  }
  frame.dirty |= dirty;
  --frame.pin_count;
  return Status::OK();
}

Status BufferPool::NewPage(PageId* id, char** data) {
  PageId fresh;
  CCAM_ASSIGN_OR_RETURN(fresh, disk_->AllocatePage());
  Shard& shard = ShardFor(fresh);
  std::unique_lock<std::mutex> lock(shard.mu);
  if (shard.frames.size() >= shard.capacity) {
    Status evicted = EvictOneLocked(&shard);
    if (!evicted.ok()) {
      // Roll the allocation back so a full pool leaves the disk unchanged
      // (the id returns to the free list and is reused next time).
      lock.unlock();
      (void)disk_->FreePage(fresh);
      return evicted;
    }
  }
  Frame& frame = shard.frames[fresh];
  frame.id = fresh;
  frame.data = std::make_unique<char[]>(disk_->page_size());
  std::memset(frame.data.get(), 0, disk_->page_size());
  frame.pin_count = 1;
  frame.dirty = true;  // never materialized on disk yet
  frame.ref_bit = true;
  ListPushBack(&shard, &frame);
  *id = fresh;
  *data = frame.data.get();
  return Status::OK();
}

bool BufferPool::Contains(PageId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.frames.count(id) > 0;
}

Status BufferPool::FlushPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end() || !it->second.dirty) return Status::OK();
  CCAM_RETURN_NOT_OK(disk_->WritePage(id, it->second.data.get()));
  it->second.dirty = false;
  if (m_writeback_ != nullptr) m_writeback_->Inc();
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [id, frame] : shard->frames) {
      if (frame.dirty) {
        CCAM_RETURN_NOT_OK(disk_->WritePage(id, frame.data.get()));
        frame.dirty = false;
        if (m_writeback_ != nullptr) m_writeback_->Inc();
      }
    }
  }
  return Status::OK();
}

void BufferPool::Discard(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) return;
  assert(it->second.pin_count == 0);
  ListRemove(&shard, &it->second);
  shard.frames.erase(it);
}

Status BufferPool::Reset() {
  CCAM_RETURN_NOT_OK(FlushAll());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->frames.clear();
    shard->head = shard->tail = shard->hand = nullptr;
  }
  return Status::OK();
}

size_t BufferPool::NumBuffered() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->frames.size();
  }
  return total;
}

BufferPool::Counters BufferPool::GetCounters() const {
  Counters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->hits;
    total.misses += shard->misses;
  }
  return total;
}

void BufferPool::ResetCounters() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->hits = 0;
    shard->misses = 0;
  }
}

void BufferPool::SetMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_hit_ = m_miss_ = m_eviction_ = m_writeback_ = nullptr;
    return;
  }
  m_hit_ = metrics->GetCounter("buffer_pool.hit");
  m_miss_ = metrics->GetCounter("buffer_pool.miss");
  m_eviction_ = metrics->GetCounter("buffer_pool.eviction");
  m_writeback_ = metrics->GetCounter("buffer_pool.writeback");
}

int BufferPool::PinCount(PageId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  return it == shard.frames.end() ? 0 : it->second.pin_count;
}

PageGuard::PageGuard(BufferPool* pool, PageId id, IoStats* io)
    : pool_(pool), id_(id) {
  bool was_miss = false;
  auto res = pool->FetchPage(id, &was_miss);
  if (res.ok()) {
    data_ = *res;
    if (io != nullptr && was_miss) ++io->reads;
  } else {
    status_ = res.status();
    pool_ = nullptr;
  }
}

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      id_(other.id_),
      data_(other.data_),
      dirty_(other.dirty_),
      status_(other.status_) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    data_ = other.data_;
    dirty_ = other.dirty_;
    status_ = other.status_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::Release() {
  if (pool_ != nullptr && data_ != nullptr) {
    (void)pool_->UnpinPage(id_, dirty_);
  }
  pool_ = nullptr;
  data_ = nullptr;
}

}  // namespace ccam
