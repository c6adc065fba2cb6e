#ifndef CCAM_SERVE_QUERY_SERVICE_H_
#define CCAM_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/request_context.h"
#include "src/common/thread_pool.h"
#include "src/core/network_file.h"
#include "src/core/query_session.h"
#include "src/storage/snapshot_manager.h"
#include "src/serve/admission.h"
#include "src/serve/circuit_breaker.h"
#include "src/serve/request.h"
#include "src/serve/scheduler.h"

namespace ccam {
namespace serve {

/// Tuning knobs of the query service.
struct QueryServiceOptions {
  /// Worker threads, each owning one QuerySession. 0 = the data buffer
  /// pool's shard count (one worker per pool shard, the natural affinity
  /// grain), capped at the frames of its smallest shard and floored at 1.
  /// An explicit count must not exceed BufferPool::MinShardCapacity():
  /// each worker holds at most one pinned frame at a time, so only then
  /// does every shard keep an evictable frame — above it, a fetch can fail
  /// with NoSpace once every frame of a shard is pinned.
  int num_workers = 0;
  /// Admission control (see AdmissionController::Options).
  size_t max_queue_depth = 1024;
  size_t max_tenant_depth = 0;
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
  /// DRR quantum: requests one tenant may start per scheduling turn.
  uint32_t drr_quantum = 8;
  /// Region batching: the largest number of same-region requests one
  /// worker executes back to back, so the first request's fetch of the
  /// region page leaves it buffered for the rest. 1 disables grouping.
  size_t max_batch = 16;
  /// How long a worker may hold an underfull batch open waiting for more
  /// same-region arrivals. 0 (the default) makes batching purely
  /// opportunistic — only requests already queued join a batch — so low
  /// loads pay no added latency and p99 tracks the unbatched path.
  uint32_t batch_window_us = 0;
  /// Master switch for region-batched execution. Off = every request is
  /// dispatched and executed alone (the baseline the serve_load bench
  /// compares against).
  bool region_batching = true;
  /// Dispatch requests to the worker owning their origin page (true), or
  /// spray them round-robin (false, the affinity-free baseline).
  bool region_affinity = true;
  /// Total execution attempts per request for retryable failures (IOError
  /// / ShortRead — transient transport faults). 1 (the default) disables
  /// retries; larger values re-execute a failed request individually with
  /// jittered backoff, skipping the retry when the request's deadline
  /// passed or the service is stopping. Deterministic failures
  /// (Corruption, Quarantined) and lifecycle statuses are never retried.
  int retry_max_attempts = 1;
  /// Upper bound of the jittered backoff before each retry attempt; the
  /// k-th retry sleeps uniform(0, k * retry_backoff_us].
  uint32_t retry_backoff_us = 200;
  /// Circuit breaker: consecutive same-class failures (I/O, corruption,
  /// deadline — see CircuitBreaker) that trip admission into shedding
  /// matching load with typed Overloaded rejections. 0 (the default)
  /// disables the breaker entirely.
  uint64_t breaker_trip_threshold = 0;
  /// Microseconds an open breaker sheds before admitting a probe.
  int64_t breaker_cooldown_us = 50000;
  /// Seed of the retry-backoff jitter streams.
  uint64_t seed = 42;
};

/// Multi-tenant serving front end over one read-only NetworkFile — the
/// scaling step after the concurrent read path: where QuerySession made
/// many threads *correct*, the service makes many *clients* efficient by
/// exploiting CCAM's clustering across concurrent queries, so one hot
/// page fetch serves many requests.
///
/// Pipeline: Submit() stamps the request's region (the data page of its
/// origin node, i.e. its connectivity cluster), passes per-tenant
/// admission control (token-bucket rate limit, bounded global and
/// per-tenant queue depth — rejections are typed Overloaded), and enqueues
/// it with the worker that owns the region (region % workers, mirroring
/// the buffer pool's page->shard map). Each worker drains its own
/// deficit-round-robin scheduler: it pops the next tenant's request plus
/// every queued request touching the same region (up to max_batch) and
/// executes the batch through the drivers' batch entry points — so the
/// region page fetch that the first request pays is a buffer hit for the
/// rest. The worker pins nothing across requests: the operators' scoped
/// PageGuards keep it at one pinned frame at a time, which is what the
/// num_workers bound relies on.
///
/// Accounting: all reads go through the workers' QuerySessions, so the
/// paper's conservation invariant extends to the whole service — the sum
/// of the workers' per-session IoStats equals the file's global disk
/// reads (TotalSessionIoStats; verified by tests/serve_test.cc).
///
/// Thread safety: Submit is safe from any number of client threads.
/// Construction, SetMetrics, Shutdown and the stats accessors follow the
/// usual quiescence rules (SetMetrics before serving; stats after
/// Shutdown or from the owning thread).
class QueryService {
 public:
  QueryService(NetworkFile* file, const QueryServiceOptions& options);

  /// Serves a snapshot store instead of a single file: each worker owns a
  /// SnapshotSession pinned to one published version, refreshed only at
  /// batch boundaries — an in-flight batch keeps its version (and the
  /// pages its operators pin) across a concurrent swap, which is exactly
  /// the session-drain contract the reorganizer's retirement waits on.
  /// Regions are stamped via SnapshotManager::RegionOf against the version
  /// current at submit time; after a swap a region may name a page id of
  /// the older layout, which degrades only batching affinity, never
  /// results. Mutations and background reorganizations may run
  /// concurrently with serving.
  QueryService(SnapshotManager* manager, const QueryServiceOptions& options);

  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one request; never blocks on execution. The returned ticket
  /// completes with the query's response — or immediately with a typed
  /// Overloaded status when admission control refuses it (queue full,
  /// tenant over rate/depth allowance, or service shutting down).
  ServeTicketPtr Submit(ServeRequest request);

  /// Stops the service. `drain` = true executes everything already
  /// queued before returning; false cancels queued-but-unstarted requests
  /// (their tickets complete with Overloaded("cancelled: ...")). Either
  /// way no new request is accepted once Shutdown begins, in-flight
  /// batches run to completion, and every ever-issued ticket is complete
  /// when Shutdown returns. Idempotent; the destructor drains.
  void Shutdown(bool drain = true);

  /// Attaches the "serve.*" metric family (null detaches). Call while
  /// quiescent, like every other SetMetrics in the stack; the handles are
  /// cached so a detached service pays one null test per event.
  void SetMetrics(MetricsRegistry* metrics);

  /// Sum of the worker sessions' data-page IoStats. With every read going
  /// through the sessions, this equals the file's global disk-read delta
  /// over the service's lifetime. Call while quiescent.
  IoStats TotalSessionIoStats() const;
  /// Same for hierarchy-overlay reads.
  IoStats TotalSessionHierarchyIoStats() const;

  /// Monotonic service counters (safe to sample any time).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;   // refused without execution: admission
                             // rejections, invalid requests, cancellations,
                             // deadline/breaker shedding
    uint64_t completed = 0;  // executed requests (any typed outcome)
    uint64_t batches = 0;    // batches executed (incl. singletons)
    uint64_t batched_requests = 0;  // requests that shared a batch (size>1)
    uint64_t shed_deadline = 0;     // of rejected: expired before execution
    uint64_t shed_breaker = 0;      // of rejected: circuit breaker open
    uint64_t retries = 0;           // re-execution attempts performed
  };
  Stats GetStats() const;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Current queued-but-unexecuted requests (sampled under the lock).
  size_t queue_depth();

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    DrrScheduler scheduler;
    /// Exactly one of the two is set: `session` against a NetworkFile,
    /// `snap_session` against a SnapshotManager.
    std::unique_ptr<QuerySession> session;
    std::unique_ptr<SnapshotSession> snap_session;
    /// Lifecycle context re-stamped per batch (deadlined subsets execute
    /// under the tightest member deadline) and jitter stream for retry
    /// backoff. Worker-thread-only.
    RequestContext ctx;
    Random rng;
  };

  /// Worker count for num_workers = 0 over the data pool `pool`.
  static int DefaultWorkers(const BufferPool& pool);
  void StartWorkers(int n);
  void WorkerLoop(Worker* worker);
  void ExecuteBatch(Worker* worker, std::vector<QueuedRequest>* batch);
  /// Executes the requests at `indices` of `batch` through the drivers'
  /// batch entry points, writing each result into `responses`. The
  /// lifecycle context (if any) is already attached to the session.
  void ExecuteOps(AccessMethod* am, std::vector<QueuedRequest>* batch,
                  const std::vector<size_t>& indices,
                  std::vector<ServeResponse>* responses);
  /// Attaches/detaches the worker's RequestContext on its session.
  void SetSessionContext(Worker* worker, RequestContext* ctx);
  void CancelBatch(std::vector<QueuedRequest>* batch, const char* why);
  AccessMethod* SessionOf(Worker* worker) const {
    return worker->session != nullptr
               ? static_cast<AccessMethod*>(worker->session.get())
               : static_cast<AccessMethod*>(worker->snap_session.get());
  }

  /// Microseconds on the steady clock (the service's common time base).
  static uint64_t NowMicros();

  NetworkFile* file_;                   // null in snapshot mode
  SnapshotManager* manager_ = nullptr;  // null in file mode
  QueryServiceOptions options_;

  std::mutex admission_mu_;
  AdmissionController admission_;
  bool accepting_ = true;

  /// Per-failure-class load shedding; non-null iff breaker_trip_threshold
  /// > 0. Leaf-level lock, consulted at admission and fed by executions.
  std::unique_ptr<CircuitBreaker> breaker_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> round_robin_{0};
  /// The worker pool; one long-lived WorkerLoop task per worker.
  std::unique_ptr<ThreadPool> pool_;
  bool shut_down_ = false;

  std::atomic<uint64_t> n_submitted_{0};
  std::atomic<uint64_t> n_admitted_{0};
  std::atomic<uint64_t> n_rejected_{0};
  std::atomic<uint64_t> n_completed_{0};
  std::atomic<uint64_t> n_batches_{0};
  std::atomic<uint64_t> n_batched_requests_{0};
  std::atomic<uint64_t> n_shed_deadline_{0};
  std::atomic<uint64_t> n_shed_breaker_{0};
  std::atomic<uint64_t> n_retries_{0};

  /// Cached "serve.*" metric handles (null = metrics detached).
  MetricCounter* m_submitted_ = nullptr;
  MetricCounter* m_admitted_ = nullptr;
  MetricCounter* m_rejected_queue_ = nullptr;
  MetricCounter* m_rejected_tenant_ = nullptr;
  MetricCounter* m_rejected_rate_ = nullptr;
  MetricCounter* m_rejected_shutdown_ = nullptr;
  MetricCounter* m_completed_ = nullptr;
  MetricCounter* m_batches_ = nullptr;
  MetricCounter* m_batched_requests_ = nullptr;
  MetricCounter* m_shed_deadline_ = nullptr;
  MetricCounter* m_shed_breaker_ = nullptr;
  MetricCounter* m_retries_ = nullptr;
  MetricGauge* g_queue_depth_ = nullptr;
  MetricHistogram* h_queue_wait_us_ = nullptr;
  MetricHistogram* h_exec_us_ = nullptr;
  MetricHistogram* h_latency_us_ = nullptr;
  MetricHistogram* h_batch_occupancy_ = nullptr;
};

}  // namespace serve
}  // namespace ccam

#endif  // CCAM_SERVE_QUERY_SERVICE_H_
