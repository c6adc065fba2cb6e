#ifndef CCAM_CORE_READ_SESSION_H_
#define CCAM_CORE_READ_SESSION_H_

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/request_context.h"
#include "src/core/network_file.h"

namespace ccam {

class SnapshotManager;
class SnapshotVersion;

/// A read-only query stream over one NetworkFile: every query driver
/// (route evaluation, A*, CH, traversals, aggregation) runs against it
/// unchanged, but reads go through the file's thread-safe tracked path and
/// data- and overlay-page accesses are counted per session, preserving the
/// paper's accounting convention for each concurrent stream.
///
/// A session opened from a SnapshotManager pins one published version: it
/// reads that version's base file, resolves every record through the
/// version's mutation overlay first (in-memory, no page I/O), and reports
/// the version's live node ids. With an empty overlay it is I/O-for-I/O
/// identical to a session on the base file — the bit-identical-accounting
/// guarantee tests/snapshot_swap_test.cc gates. The version is held until
/// Refresh() re-acquires the current one, so queries in flight never
/// migrate between versions and a long-lived session keeps reading its
/// frozen snapshot.
///
/// Concurrency contract: one session per thread (the session's counters
/// are plain fields); any number of sessions may operate concurrently on
/// one file, but not concurrently with mutations of the file (a snapshot
/// store's mutations land in the overlay and may run concurrently). A fetch
/// is charged to the session iff it missed the shared buffer pool, so the
/// sessions' counters sum exactly to the file's global disk reads.
///
/// Debug builds enforce the contract: the session binds to the thread of
/// its first read and asserts every later read runs on that same thread —
/// a violation used to corrupt the per-session counters silently (two
/// unsynchronized writers on plain uint64_t fields) and only surfaced,
/// sometimes, as a conservation mismatch much later. A deliberate
/// single-threaded handoff (a pool worker adopting a session built
/// elsewhere) calls RebindToCurrentThread() at the ownership transfer.
class ReadSession final : public NetworkReader {
 public:
  explicit ReadSession(NetworkFile* file) : file_(file) {}
  /// Pins `manager`'s current version until Refresh() or destruction; the
  /// store must outlive the session.
  explicit ReadSession(SnapshotManager* manager);
  ~ReadSession() override;

  ReadSession(const ReadSession&) = delete;
  ReadSession& operator=(const ReadSession&) = delete;

  std::string Name() const override { return file_->Name() + "/session"; }

  Result<NodeRecord> Find(NodeId id) override;
  /// A read of `to`: the buffered page holding `from` is searched for free
  /// by construction.
  Result<NodeRecord> GetASuccessor(NodeId, NodeId to) override {
    return Find(to);
  }
  Result<std::vector<NodeRecord>> GetSuccessors(NodeId id) override;

  /// This session's page accesses (not the file's global counters).
  IoStats DataIoStats() const override { return io_; }
  void ResetIoStats() override {
    io_ = IoStats{};
    hier_io_ = IoStats{};
  }

  /// Overlay reads follow the same per-session convention: a fetch is
  /// charged here iff it missed the overlay's shared buffer pool. A pinned
  /// snapshot version never has a hierarchy: its mutation overlay would
  /// outdate the shortcuts (see docs/INTERNALS.md, "Snapshot lifecycle").
  bool HasHierarchy() const override {
    return version_ == nullptr && file_->HasHierarchy();
  }
  Result<HierarchyNodeRecord> HierarchyNode(NodeId id) override;
  IoStats HierarchyIoStats() const override { return hier_io_; }

  const NodePageMap& PageMap() const override { return file_->PageMap(); }
  std::vector<NodeId> LiveNodeIds() const override;
  size_t NumLiveNodes() const override;

  /// Sessions inherit the file's (or the snapshot store's) registry, so
  /// "query.*" spans from every concurrent stream land in one catalog.
  MetricsRegistry* metrics() const override;

  /// Attaches (or with nullptr, detaches) the lifecycle context governing
  /// reads through this session. The session does not own the context; the
  /// caller keeps it alive for the duration of the request. Detached is
  /// the default and costs one branch per read.
  void SetRequestContext(RequestContext* ctx) { ctx_ = ctx; }
  RequestContext* request_context() const override { return ctx_; }

  /// Transfers the session to the calling thread (debug-build contract
  /// bookkeeping only). Call at a deliberate ownership handoff — e.g. a
  /// serving worker adopting a session that the service constructed on its
  /// own thread — never to share one session between live threads.
  void RebindToCurrentThread() {
#ifndef NDEBUG
    bound_thread_ = std::this_thread::get_id();
#endif
  }

  /// Re-acquires the snapshot store's current version when it changed; a
  /// no-op without a pinned version. Call only between queries (no pins or
  /// in-flight reads); per-session IoStats accumulate across refreshes.
  void Refresh();

  /// The file reads go to: the pinned version's base file when pinned.
  NetworkFile* file() const { return file_; }
  BufferPool* buffer_pool() const { return file_->buffer_pool(); }
  /// The pinned version's id (0 without one).
  uint64_t version_id() const;

 private:
  /// Per-read bookkeeping shared by every read: the thread contract and
  /// the lifecycle poll.
  Status BeginRead() {
    DebugCheckThread();
    return ctx_ != nullptr ? ctx_->Check() : Status::OK();
  }

  /// The pinned version's overlay entry for `id`: its record, or NotFound
  /// for a tombstone. Empty when nothing is pinned or `id` never mutated.
  std::optional<Result<NodeRecord>> FromOverlay(NodeId id) const;

  void DebugCheckThread() {
#ifndef NDEBUG
    if (bound_thread_ == std::thread::id()) {
      bound_thread_ = std::this_thread::get_id();
    }
    assert(bound_thread_ == std::this_thread::get_id() &&
           "ReadSession used from two threads: open one session per thread "
           "(or RebindToCurrentThread() at a single-threaded handoff)");
#endif
  }

  NetworkFile* file_;
  /// Snapshot mode only: the store and the pinned version (both null for
  /// a session opened on a plain file).
  SnapshotManager* manager_ = nullptr;
  std::shared_ptr<SnapshotVersion> version_;
  RequestContext* ctx_ = nullptr;  // not owned; null = lifecycle checks off
  IoStats io_;       // per-session: the session is single-threaded by contract
  IoStats hier_io_;  // per-session overlay reads, same contract
#ifndef NDEBUG
  /// Thread of the first read (default id = not yet bound).
  std::thread::id bound_thread_{};
#endif
};

}  // namespace ccam

#endif  // CCAM_CORE_READ_SESSION_H_
