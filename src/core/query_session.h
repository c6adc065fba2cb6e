#ifndef CCAM_CORE_QUERY_SESSION_H_
#define CCAM_CORE_QUERY_SESSION_H_

#include <cassert>
#include <string>
#include <thread>
#include <vector>

#include "src/common/request_context.h"
#include "src/core/network_file.h"

namespace ccam {

/// A read-only query stream over a shared NetworkFile. Sessions implement
/// the AccessMethod interface so every query driver (route evaluation, A*,
/// traversals, aggregation) runs against one unchanged — but reads go
/// through the file's thread-safe shared path and data-page accesses are
/// counted per session, preserving the paper's accounting convention for
/// each concurrent stream.
///
/// Concurrency contract: one session per thread (the session's counters
/// are plain fields); any number of sessions may operate concurrently on
/// one file, but not concurrently with mutations of the file. A fetch is
/// charged to the session iff it missed the shared buffer pool, so the
/// sessions' counters sum exactly to the file's global disk reads.
///
/// Debug builds enforce the contract: the session binds to the thread of
/// its first read and asserts every later read runs on that same thread —
/// a violation used to corrupt the per-session counters silently (two
/// unsynchronized writers on plain uint64_t fields) and only surfaced,
/// sometimes, as a conservation mismatch much later. A deliberate
/// single-threaded handoff (a pool worker adopting a session built
/// elsewhere) calls RebindToCurrentThread() at the ownership transfer.
///
/// Mutating operations return NotSupported.
class QuerySession : public AccessMethod {
 public:
  explicit QuerySession(NetworkFile* file) : file_(file) {}

  std::string Name() const override { return file_->Name() + "/session"; }

  Status Create(const Network&) override {
    return Status::NotSupported("read-only query session");
  }

  Result<NodeRecord> Find(NodeId id) override {
    DebugCheckThread();
    if (ctx_ != nullptr) CCAM_RETURN_NOT_OK(ctx_->Check());
    return file_->SharedFind(id, &io_);
  }
  Result<NodeRecord> GetASuccessor(NodeId from, NodeId to) override {
    DebugCheckThread();
    if (ctx_ != nullptr) CCAM_RETURN_NOT_OK(ctx_->Check());
    return file_->SharedGetASuccessor(from, to, &io_);
  }
  Result<std::vector<NodeRecord>> GetSuccessors(NodeId id) override {
    DebugCheckThread();
    if (ctx_ != nullptr) CCAM_RETURN_NOT_OK(ctx_->Check());
    return file_->SharedGetSuccessors(id, &io_);
  }

  Status InsertNode(const NodeRecord&, ReorgPolicy) override {
    return Status::NotSupported("read-only query session");
  }
  Status DeleteNode(NodeId, ReorgPolicy) override {
    return Status::NotSupported("read-only query session");
  }
  Status InsertEdge(NodeId, NodeId, float, ReorgPolicy) override {
    return Status::NotSupported("read-only query session");
  }
  Status DeleteEdge(NodeId, NodeId, ReorgPolicy) override {
    return Status::NotSupported("read-only query session");
  }

  /// This session's data-page accesses (not the file's global counters).
  IoStats DataIoStats() const override { return io_; }
  void ResetIoStats() override {
    io_ = IoStats{};
    hier_io_ = IoStats{};
  }

  /// Overlay reads follow the same per-session convention: a fetch is
  /// charged here iff it missed the overlay's shared buffer pool.
  bool HasHierarchy() const override { return file_->HasHierarchy(); }
  Result<HierarchyNodeRecord> HierarchyNode(NodeId id) override {
    DebugCheckThread();
    if (ctx_ != nullptr) CCAM_RETURN_NOT_OK(ctx_->Check());
    return file_->SharedHierarchyNode(id, &hier_io_);
  }
  IoStats HierarchyIoStats() const override { return hier_io_; }

  const NodePageMap& PageMap() const override { return file_->PageMap(); }
  BufferPool* buffer_pool() override { return file_->buffer_pool(); }
  bool LastOpChangedStructure() const override { return false; }
  size_t NumDataPages() const override { return file_->NumDataPages(); }

  NetworkFile* file() const { return file_; }

  /// Pins one data page for the lifetime of the returned guard, charging a
  /// pool miss to this session, so the per-session conservation invariant
  /// still holds exactly.
  PageGuard PinDataPage(PageId id) {
    DebugCheckThread();
    return PageGuard(file_->buffer_pool(), id, &io_);
  }

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

  /// Sessions inherit the file's registry, so "query.*" spans from every
  /// concurrent stream land in the same catalog.
  MetricsRegistry* metrics() const override { return file_->metrics(); }

 private:
  void DebugCheckThread() {
#ifndef NDEBUG
    if (bound_thread_ == std::thread::id()) {
      bound_thread_ = std::this_thread::get_id();
    }
    assert(bound_thread_ == std::this_thread::get_id() &&
           "QuerySession used from two threads: open one session per thread "
           "(or RebindToCurrentThread() at a single-threaded handoff)");
#endif
  }

  NetworkFile* file_;
  RequestContext* ctx_ = nullptr;  // not owned; null = lifecycle checks off
  IoStats io_;       // per-session: the session is single-threaded by contract
  IoStats hier_io_;  // per-session overlay reads, same contract
#ifndef NDEBUG
  /// Thread of the first read (default id = not yet bound).
  std::thread::id bound_thread_{};
#endif
};

}  // namespace ccam

#endif  // CCAM_CORE_QUERY_SESSION_H_
