// Delta-log recovery fuzz under a concurrent reader: every torn-tail cut
// of the log recovers exactly the acked mutations whose frames survived
// complete (the crash contract), mid-record CRC damage inside the durable
// region fails loudly with a typed Corruption — never a silent blend —
// and a snapshot session pinned to the old version keeps serving its
// frozen view throughout, unaffected by on-disk damage to the log.

#include "src/storage/delta_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/coding.h"
#include "src/graph/generator.h"
#include "src/storage/snapshot_manager.h"

namespace ccam {
namespace {

namespace fs = std::filesystem;

std::string TempDirFor(const std::string& leaf) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + leaf;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Byte offsets where each complete frame of `bytes` ends.
std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> ends;
  size_t pos = 0;
  while (pos + DeltaLog::kFrameHeaderSize <= bytes.size()) {
    uint32_t length = DecodeFixed32(bytes.data() + pos + 9);
    size_t frame = DeltaLog::kFrameHeaderSize + length +
                   DeltaLog::kFrameTrailerSize;
    if (pos + frame > bytes.size()) break;
    pos += frame;
    ends.push_back(pos);
  }
  return ends;
}

// --- ScanFile-level fuzz: every cut point, every damaged frame ----------

TEST(DeltaLogRecoveryTest, EveryTornTailCutRecoversTheCompletePrefix) {
  std::string dir = TempDirFor("ccam_dlog_cuts");
  fs::create_directories(dir);
  std::vector<DeltaRecord> records;
  for (uint64_t i = 1; i <= 12; ++i) {
    DeltaRecord r;
    r.kind = DeltaRecord::Kind::kInsertEdge;
    r.lsn = i;
    r.u = static_cast<NodeId>(i);
    r.v = static_cast<NodeId>(i + 100);
    r.cost = 1.5f * static_cast<float>(i);
    records.push_back(r);
  }
  std::string log_path = dir + "/delta.log";
  ASSERT_TRUE(DeltaLog::WriteAll(log_path, records).ok());
  std::string bytes = ReadFileBytes(log_path);
  std::vector<size_t> ends = FrameBoundaries(bytes);
  ASSERT_EQ(ends.size(), records.size());

  // Cut the file at EVERY byte length and scan: the decoded prefix must be
  // exactly the records whose frames survived complete, and valid_bytes
  // must point at the last complete frame's end.
  std::string cut_path = dir + "/cut.log";
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    size_t valid = 0;
    auto scan = DeltaLog::ScanFile(cut_path, &valid);
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": "
                           << scan.status().ToString();
    size_t survivors = 0;
    while (survivors < ends.size() && ends[survivors] <= cut) ++survivors;
    ASSERT_EQ(scan->size(), survivors) << "cut=" << cut;
    EXPECT_EQ(valid, survivors == 0 ? 0 : ends[survivors - 1])
        << "cut=" << cut;
    for (size_t i = 0; i < survivors; ++i) {
      EXPECT_EQ((*scan)[i].lsn, records[i].lsn);
      EXPECT_EQ((*scan)[i].u, records[i].u);
      EXPECT_EQ((*scan)[i].v, records[i].v);
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(DeltaLogRecoveryTest, MidRecordDamageIsTypedCorruptionNeverSilent) {
  std::string dir = TempDirFor("ccam_dlog_damage");
  fs::create_directories(dir);
  std::vector<DeltaRecord> records;
  for (uint64_t i = 1; i <= 6; ++i) {
    DeltaRecord r;
    r.kind = DeltaRecord::Kind::kDeleteEdge;
    r.lsn = i;
    r.u = static_cast<NodeId>(i);
    r.v = static_cast<NodeId>(i + 7);
    records.push_back(r);
  }
  std::string log_path = dir + "/delta.log";
  ASSERT_TRUE(DeltaLog::WriteAll(log_path, records).ok());
  const std::string bytes = ReadFileBytes(log_path);
  std::vector<size_t> ends = FrameBoundaries(bytes);
  ASSERT_EQ(ends.size(), records.size());

  // Flip one byte at a time inside frames 2 and 4 — header, payload and
  // trailer positions alike. Damage must never decode as the full record
  // set or as garbage: either the scan fails with a typed Corruption, or
  // (when the flipped byte is in a length field, making the damage
  // indistinguishable from a torn tail) it decodes a clean, strictly
  // shorter prefix ending before the damaged frame.
  std::string hurt_path = dir + "/hurt.log";
  size_t corruptions = 0;
  for (size_t frame : {size_t{1}, size_t{3}}) {
    size_t begin = ends[frame - 1];
    for (size_t at = begin; at < ends[frame]; ++at) {
      std::string damaged = bytes;
      damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
      WriteFileBytes(hurt_path, damaged);
      auto scan = DeltaLog::ScanFile(hurt_path);
      if (!scan.ok()) {
        EXPECT_TRUE(scan.status().IsCorruption())
            << "frame=" << frame << " at=" << at << ": "
            << scan.status().ToString();
        ++corruptions;
        continue;
      }
      ASSERT_LE(scan->size(), frame) << "frame=" << frame << " at=" << at;
      for (size_t i = 0; i < scan->size(); ++i) {
        EXPECT_EQ((*scan)[i].lsn, records[i].lsn);
        EXPECT_EQ((*scan)[i].u, records[i].u);
        EXPECT_EQ((*scan)[i].v, records[i].v);
      }
    }
  }
  // CRC damage (the common case) really is reported loudly.
  EXPECT_GT(corruptions, 20u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// --- Store-level recovery while a session holds the old version ---------

TEST(DeltaLogRecoveryTest, StoreRecoveryUnderConcurrentReaderSession) {
  SnapshotOptions sopt;
  sopt.am.page_size = 1024;
  sopt.am.buffer_pool_pages = 8;
  sopt.am.num_threads = 1;
  sopt.dir = TempDirFor("ccam_dlog_store");
  Network net = GenerateRandomGeometricNetwork(120, 150.0, 1000.0, 77);
  auto mgr = SnapshotManager::Create(sopt, net);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  SnapshotManager* store = mgr->get();

  // A reader pins the PRE-mutation version and hammers it for the whole
  // test: its frozen view must stay fully readable no matter what lands in
  // the log or what recovery does to copies of the store on disk.
  std::vector<NodeId> ids = net.NodeIds();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_errors{0};
  std::thread reader([&] {
    std::unique_ptr<ReadSession> session = store->OpenSession();
    while (!stop.load(std::memory_order_acquire)) {
      for (NodeId id : ids) {
        auto rec = session->Find(id);
        if (!rec.ok() || rec->id != id) {
          reader_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  // Joins the reader even when an ASSERT unwinds the test body early.
  struct StopJoin {
    std::atomic<bool>* stop;
    std::thread* thread;
    ~StopJoin() {
      stop->store(true, std::memory_order_release);
      if (thread->joinable()) thread->join();
    }
  } guard{&stop, &reader};

  // Acked mutations: every one of these returned OK, so every one's frame
  // is durable in delta.log (Flush is the ack barrier).
  std::vector<std::pair<NodeId, NodeId>> acked;
  const size_t half = ids.size() / 2;
  // Pair ids half the id space apart: the generator assigns ids in spatial
  // order, so these pairs are far apart and the new edges don't exist yet.
  for (size_t i = 0; i + half < ids.size() && acked.size() < 16; i += 3) {
    NodeId u = ids[i], v = ids[i + half];
    if (net.HasEdge(u, v)) continue;
    Status s = store->InsertEdge(u, v, 3.25f);
    ASSERT_TRUE(s.ok()) << s.ToString();
    acked.emplace_back(u, v);
  }
  ASSERT_GE(acked.size(), 8u);

  const std::string log_bytes = ReadFileBytes(sopt.dir + "/delta.log");
  std::vector<size_t> ends = FrameBoundaries(log_bytes);
  ASSERT_EQ(ends.size(), acked.size());

  // Fuzz torn tails at the store level: copy the live store, cut its log
  // mid-frame, and Open the copy. Recovery must land on exactly the acked
  // prefix whose frames survived — and the physical file must be truncated
  // to the valid prefix so post-recovery appends are readable.
  for (size_t survivors : {size_t{0}, acked.size() / 2, acked.size()}) {
    SCOPED_TRACE("survivors=" + std::to_string(survivors));
    std::string copy = TempDirFor("ccam_dlog_store_cut");
    fs::copy(sopt.dir, copy);
    size_t keep = survivors == 0 ? 0 : ends[survivors - 1];
    // A torn tail: the complete prefix plus half of the next frame.
    size_t cut = keep < log_bytes.size()
                     ? keep + (ends[survivors] - keep) / 2
                     : keep;
    WriteFileBytes(copy + "/delta.log", log_bytes.substr(0, cut));

    SnapshotOptions copt = sopt;
    copt.dir = copy;
    auto reopened = SnapshotManager::Open(copt);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(fs::file_size(copy + "/delta.log"), keep);  // tail chopped
    std::unique_ptr<ReadSession> session = (*reopened)->OpenSession();
    for (size_t i = 0; i < acked.size(); ++i) {
      // GetASuccessor degenerates to a record read, so probe edge
      // presence the honest way: read the source node and scan its
      // successor list for the target.
      auto rec = session->Find(acked[i].first);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      bool present = false;
      for (const auto& adj : rec->succ) {
        if (adj.node == acked[i].second) present = true;
      }
      if (i < survivors) {
        EXPECT_TRUE(present) << "acked edge " << i << " lost";
      } else {
        EXPECT_FALSE(present) << "unacked edge " << i << " resurrected";
      }
    }
    session.reset();
    reopened->reset();
    std::error_code ec;
    fs::remove_all(copy, ec);
  }

  // Mid-record CRC damage in the durable region: Open must refuse with a
  // typed Corruption, not recover a blend.
  {
    std::string copy = TempDirFor("ccam_dlog_store_crc");
    fs::copy(sopt.dir, copy);
    std::string damaged = log_bytes;
    size_t at = ends[1] - 2;  // inside frame 2's CRC trailer
    damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
    WriteFileBytes(copy + "/delta.log", damaged);
    SnapshotOptions copt = sopt;
    copt.dir = copy;
    auto reopened = SnapshotManager::Open(copt);
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsCorruption())
        << reopened.status().ToString();
    std::error_code ec;
    fs::remove_all(copy, ec);
  }

  stop.store(true, std::memory_order_release);
  reader.join();
  // The pinned session never saw a single failed or wrong read.
  EXPECT_EQ(reader_errors.load(), 0u);

  std::error_code ec;
  fs::remove_all(sopt.dir, ec);
}

}  // namespace
}  // namespace ccam
