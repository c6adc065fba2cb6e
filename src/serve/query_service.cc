#include "src/serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "src/query/aggregate.h"
#include "src/query/hierarchy.h"
#include "src/query/route_eval.h"
#include "src/query/search.h"

namespace ccam {
namespace serve {

const char* ServeOpName(ServeOp op) {
  switch (op) {
    case ServeOp::kRouteEval:
      return "route_eval";
    case ServeOp::kAStar:
      return "astar";
    case ServeOp::kHierarchy:
      return "hierarchy";
    case ServeOp::kAggregate:
      return "aggregate";
  }
  return "unknown";
}

int QueryService::DefaultWorkers(const BufferPool& pool) {
  return static_cast<int>(
      std::min(pool.num_shards(), pool.MinShardCapacity()));
}

uint64_t QueryService::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

QueryService::QueryService(NetworkFile* file,
                           const QueryServiceOptions& options)
    : file_(file),
      options_(options),
      admission_(AdmissionController::Options{
          options.max_queue_depth, options.max_tenant_depth,
          options.tenant_rate, options.tenant_burst}) {
  int n = options_.num_workers;
  if (n <= 0) n = DefaultWorkers(*file_->buffer_pool());
  StartWorkers(n);
}

QueryService::QueryService(SnapshotManager* manager,
                           const QueryServiceOptions& options)
    : file_(nullptr),
      manager_(manager),
      options_(options),
      admission_(AdmissionController::Options{
          options.max_queue_depth, options.max_tenant_depth,
          options.tenant_rate, options.tenant_burst}) {
  int n = options_.num_workers;
  if (n <= 0) {
    // Same rule as file mode, against the (current) version's pool. A
    // throwaway probe session reads it — it lives and dies on this
    // constructor thread.
    auto probe = manager_->OpenSession();
    n = DefaultWorkers(*probe->buffer_pool());
  }
  StartWorkers(n);
}

void QueryService::StartWorkers(int n) {
  if (n < 1) n = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.retry_max_attempts < 1) options_.retry_max_attempts = 1;
  if (options_.breaker_trip_threshold > 0) {
    breaker_ = std::make_unique<CircuitBreaker>(CircuitBreaker::Options{
        options_.breaker_trip_threshold, options_.breaker_cooldown_us});
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    w->scheduler = DrrScheduler(options_.drr_quantum);
    w->rng = Random(options_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    if (file_ != nullptr) {
      w->session = file_->OpenSession();
    } else {
      w->snap_session = manager_->OpenSession();
    }
    workers_.push_back(std::move(w));
  }
  pool_ = std::make_unique<ThreadPool>(n);
  for (auto& w : workers_) {
    Worker* wp = w.get();
    pool_->Submit([this, wp] { WorkerLoop(wp); });
  }
}

QueryService::~QueryService() { Shutdown(/*drain=*/true); }

void QueryService::SetMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_submitted_ = m_admitted_ = m_rejected_queue_ = m_rejected_tenant_ =
        m_rejected_rate_ = m_rejected_shutdown_ = m_completed_ = m_batches_ =
            m_batched_requests_ = m_shed_deadline_ = m_shed_breaker_ =
                m_retries_ = nullptr;
    g_queue_depth_ = nullptr;
    h_queue_wait_us_ = h_exec_us_ = h_latency_us_ = h_batch_occupancy_ =
        nullptr;
    return;
  }
  m_submitted_ = metrics->GetCounter("serve.submitted");
  m_admitted_ = metrics->GetCounter("serve.admitted");
  m_rejected_queue_ = metrics->GetCounter("serve.rejected_queue_full");
  m_rejected_tenant_ = metrics->GetCounter("serve.rejected_tenant_depth");
  m_rejected_rate_ = metrics->GetCounter("serve.rejected_rate_limited");
  m_rejected_shutdown_ = metrics->GetCounter("serve.rejected_shutdown");
  m_completed_ = metrics->GetCounter("serve.completed");
  m_batches_ = metrics->GetCounter("serve.batches");
  m_batched_requests_ = metrics->GetCounter("serve.batched_requests");
  m_shed_deadline_ = metrics->GetCounter("serve.shed_deadline");
  m_shed_breaker_ = metrics->GetCounter("serve.shed_breaker");
  m_retries_ = metrics->GetCounter("serve.retries");
  g_queue_depth_ = metrics->GetGauge("serve.queue_depth");
  h_queue_wait_us_ = metrics->GetHistogram("serve.queue_wait_us");
  h_exec_us_ = metrics->GetHistogram("serve.batch_exec_us");
  h_latency_us_ = metrics->GetHistogram("serve.latency_us");
  h_batch_occupancy_ = metrics->GetHistogram("serve.batch_occupancy");
}

ServeTicketPtr QueryService::Submit(ServeRequest request) {
  auto ticket = std::make_shared<ServeTicket>();
  n_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (m_submitted_ != nullptr) m_submitted_->Inc();

  auto reject = [&](Status status, MetricCounter* counter) {
    n_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (counter != nullptr) counter->Inc();
    ServeResponse response;
    response.status = std::move(status);
    response.done_us = NowMicros();
    ticket->Fulfill(std::move(response));
    return ticket;
  };

  const NodeId origin = request.Origin();
  if (origin == kInvalidNodeId) {
    return reject(Status::InvalidArgument("request has no origin node"),
                  nullptr);
  }
  PageId region = kInvalidPageId;
  if (manager_ != nullptr) {
    auto r = manager_->RegionOf(origin);
    if (!r.ok()) {
      return reject(
          Status::NotFound("origin node " + std::to_string(origin) +
                           " is not stored in the snapshot store"),
          nullptr);
    }
    region = *r;
  } else {
    auto it = file_->PageMap().find(origin);
    if (it == file_->PageMap().end()) {
      return reject(
          Status::NotFound("origin node " + std::to_string(origin) +
                           " is not stored in the file"),
          nullptr);
    }
    region = it->second;
  }

  const uint64_t now = NowMicros();
  // Shed already-expired requests before they cost a queue slot: the
  // client's budget is gone, executing would only delay live traffic.
  if (request.deadline_us != 0 &&
      static_cast<int64_t>(now) >= request.deadline_us) {
    n_shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    return reject(Status::DeadlineExceeded("expired before admission"),
                  m_shed_deadline_);
  }
  if (breaker_ != nullptr) {
    Status allow = breaker_->Allow(static_cast<int64_t>(now));
    if (!allow.ok()) {
      n_shed_breaker_.fetch_add(1, std::memory_order_relaxed);
      return reject(std::move(allow), m_shed_breaker_);
    }
  }
  Worker* w = nullptr;
  if (options_.region_affinity) {
    w = workers_[region % workers_.size()].get();
  } else {
    w = workers_[round_robin_.fetch_add(1, std::memory_order_relaxed) %
                 workers_.size()]
            .get();
  }

  {
    // One critical section covers the admission decision and the worker
    // enqueue (lock order: admission_mu_ -> worker mu, same as Shutdown),
    // so a cancelling Shutdown can never slip between "admitted" and
    // "queued" and leave a ticket nobody will fulfill.
    std::lock_guard<std::mutex> lock(admission_mu_);
    if (!accepting_) {
      return reject(Status::Overloaded("service shutting down"),
                    m_rejected_shutdown_);
    }
    AdmissionController::RejectGate gate;
    Status admit = admission_.Admit(request.tenant, now, &gate);
    if (!admit.ok()) {
      MetricCounter* counter = nullptr;
      switch (gate) {
        case AdmissionController::RejectGate::kQueueFull:
          counter = m_rejected_queue_;
          break;
        case AdmissionController::RejectGate::kTenantDepth:
          counter = m_rejected_tenant_;
          break;
        case AdmissionController::RejectGate::kRateLimit:
          counter = m_rejected_rate_;
          break;
        case AdmissionController::RejectGate::kNone:
          break;
      }
      return reject(std::move(admit), counter);
    }
    admission_.OnEnqueue(request.tenant);
    if (g_queue_depth_ != nullptr) {
      g_queue_depth_->Set(static_cast<int64_t>(admission_.queue_depth()));
    }

    QueuedRequest item;
    item.request = std::move(request);
    item.ticket = ticket;
    item.region = region;
    item.enqueue_us = now;
    {
      std::lock_guard<std::mutex> wlock(w->mu);
      w->scheduler.Enqueue(std::move(item));
    }
  }
  n_admitted_.fetch_add(1, std::memory_order_relaxed);
  if (m_admitted_ != nullptr) m_admitted_->Inc();
  w->cv.notify_one();
  return ticket;
}

void QueryService::WorkerLoop(Worker* worker) {
  // The service constructed this session on its own thread; the worker
  // adopts it here, at the single-threaded handoff.
  if (worker->session != nullptr) worker->session->RebindToCurrentThread();
  if (worker->snap_session != nullptr) {
    worker->snap_session->RebindToCurrentThread();
  }
  std::vector<QueuedRequest> batch;
  const size_t cap = options_.region_batching ? options_.max_batch : 1;
  std::unique_lock<std::mutex> lock(worker->mu);
  for (;;) {
    worker->cv.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             !worker->scheduler.empty();
    });
    if (worker->scheduler.empty()) {
      if (stop_.load(std::memory_order_acquire)) return;
      continue;
    }
    batch.clear();
    if (worker->scheduler.PopBatch(cap, &batch) == 0) continue;
    if (options_.region_batching && options_.batch_window_us > 0 &&
        batch.size() < cap && !stop_.load(std::memory_order_acquire)) {
      // Bounded batching window: hold the underfull batch open briefly for
      // more same-region arrivals. Bounded by the deadline, so the added
      // p99 at low load is at most batch_window_us (and the default window
      // is 0: purely opportunistic batching, no waiting at all).
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.batch_window_us);
      while (batch.size() < cap && !stop_.load(std::memory_order_acquire)) {
        const bool timed_out =
            worker->cv.wait_until(lock, deadline) == std::cv_status::timeout;
        worker->scheduler.PopSameRegion(batch.front().region,
                                        cap - batch.size(), &batch);
        if (timed_out) break;
      }
    }
    lock.unlock();
    // Batch boundary: re-acquire the current snapshot version before
    // executing. In-flight batches never migrate versions — the refresh
    // happens strictly between batches, with no pins held — so a reader
    // drains off a retired version one batch after a swap publishes.
    if (worker->snap_session != nullptr) worker->snap_session->Refresh();
    ExecuteBatch(worker, &batch);
    lock.lock();
  }
}

void QueryService::SetSessionContext(Worker* worker, RequestContext* ctx) {
  if (worker->session != nullptr) {
    worker->session->SetRequestContext(ctx);
  } else {
    worker->snap_session->SetRequestContext(ctx);
  }
}

void QueryService::ExecuteOps(AccessMethod* am,
                              std::vector<QueuedRequest>* batch,
                              const std::vector<size_t>& indices,
                              std::vector<ServeResponse>* responses) {
  std::vector<size_t> by_op[4];
  for (size_t i : indices) {
    by_op[static_cast<size_t>((*batch)[i].request.op)].push_back(i);
  }

  const std::vector<size_t>& route_idx =
      by_op[static_cast<size_t>(ServeOp::kRouteEval)];
  if (!route_idx.empty()) {
    std::vector<const Route*> routes;
    routes.reserve(route_idx.size());
    for (size_t i : route_idx) routes.push_back(&(*batch)[i].request.route);
    auto results = EvaluateRouteBatch(am, routes);
    for (size_t k = 0; k < route_idx.size(); ++k) {
      ServeResponse& r = (*responses)[route_idx[k]];
      if (results[k].ok()) {
        r.cost = results[k].value().total_cost;
        r.num_edges = results[k].value().num_edges;
      } else {
        r.status = results[k].status();
      }
    }
  }

  const std::vector<size_t>& astar_idx =
      by_op[static_cast<size_t>(ServeOp::kAStar)];
  if (!astar_idx.empty()) {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(astar_idx.size());
    for (size_t i : astar_idx) {
      const Route& route = (*batch)[i].request.route;
      pairs.emplace_back(route.nodes.front(), route.nodes.back());
    }
    auto results = ShortestPathAStarBatch(am, pairs);
    for (size_t k = 0; k < astar_idx.size(); ++k) {
      ServeResponse& r = (*responses)[astar_idx[k]];
      if (results[k].ok()) {
        r.cost = results[k].value().cost;
        r.num_edges = results[k].value().path.empty()
                          ? 0
                          : results[k].value().path.size() - 1;
        r.path = std::move(results[k].value().path);
      } else {
        r.status = results[k].status();
      }
    }
  }

  const std::vector<size_t>& ch_idx =
      by_op[static_cast<size_t>(ServeOp::kHierarchy)];
  if (!ch_idx.empty()) {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(ch_idx.size());
    for (size_t i : ch_idx) {
      const Route& route = (*batch)[i].request.route;
      pairs.emplace_back(route.nodes.front(), route.nodes.back());
    }
    auto results = ShortestPathCHBatch(am, pairs);
    for (size_t k = 0; k < ch_idx.size(); ++k) {
      ServeResponse& r = (*responses)[ch_idx[k]];
      if (results[k].ok()) {
        r.cost = results[k].value().cost;
        r.num_edges = results[k].value().path.empty()
                          ? 0
                          : results[k].value().path.size() - 1;
        r.path = std::move(results[k].value().path);
      } else {
        r.status = results[k].status();
      }
    }
  }

  const std::vector<size_t>& agg_idx =
      by_op[static_cast<size_t>(ServeOp::kAggregate)];
  if (!agg_idx.empty()) {
    std::vector<const RouteUnit*> units;
    units.reserve(agg_idx.size());
    for (size_t i : agg_idx) units.push_back(&(*batch)[i].request.unit);
    auto results = AggregateRouteUnitBatch(am, units);
    for (size_t k = 0; k < agg_idx.size(); ++k) {
      ServeResponse& r = (*responses)[agg_idx[k]];
      if (results[k].ok()) {
        r.cost = results[k].value().total_edge_cost;
        r.num_edges = results[k].value().num_edges;
      } else {
        r.status = results[k].status();
      }
    }
  }
}

void QueryService::ExecuteBatch(Worker* worker,
                                std::vector<QueuedRequest>* batch) {
  const uint64_t start_us = NowMicros();
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    for (const QueuedRequest& item : *batch) {
      admission_.OnDequeue(item.request.tenant);
    }
    if (g_queue_depth_ != nullptr) {
      g_queue_depth_->Set(static_cast<int64_t>(admission_.queue_depth()));
    }
  }

  // Shed members whose deadline expired while they sat in the queue: they
  // count as rejected (shed without execution), keeping
  // completed + rejected == submitted exact.
  {
    size_t kept = 0;
    uint64_t shed = 0;
    for (size_t i = 0; i < batch->size(); ++i) {
      QueuedRequest& item = (*batch)[i];
      if (item.request.deadline_us != 0 &&
          static_cast<int64_t>(start_us) >= item.request.deadline_us) {
        ServeResponse response;
        response.status = Status::DeadlineExceeded("expired in queue");
        response.done_us = start_us;
        item.ticket->Fulfill(std::move(response));
        ++shed;
        continue;
      }
      if (kept != i) (*batch)[kept] = std::move(item);
      ++kept;
    }
    if (shed > 0) {
      batch->resize(kept);
      n_rejected_.fetch_add(shed, std::memory_order_relaxed);
      n_shed_deadline_.fetch_add(shed, std::memory_order_relaxed);
      if (m_shed_deadline_ != nullptr) m_shed_deadline_->Inc(shed);
    }
    if (batch->empty()) return;
  }

  const size_t n = batch->size();
  std::vector<ServeResponse> responses(n);
  AccessMethod* am = SessionOf(worker);

  // Deadline-free requests execute with no context attached — exactly the
  // pre-lifecycle code path, so healthy traffic keeps serial-oracle
  // results even when deadlined requests share its batch. The deadlined
  // subset runs under the tightest member deadline (the batch shares page
  // fetches, so the strictest budget governs the shared work).
  std::vector<size_t> free_idx;
  std::vector<size_t> dl_idx;
  int64_t tightest = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t d = (*batch)[i].request.deadline_us;
    if (d == 0) {
      free_idx.push_back(i);
    } else {
      dl_idx.push_back(i);
      if (tightest == 0 || d < tightest) tightest = d;
    }
  }
  if (!free_idx.empty()) ExecuteOps(am, batch, free_idx, &responses);
  if (!dl_idx.empty()) {
    worker->ctx.Reset(tightest);
    SetSessionContext(worker, &worker->ctx);
    ExecuteOps(am, batch, dl_idx, &responses);
    SetSessionContext(worker, nullptr);
  }

  // Retry retryable failures (transient transport faults) individually
  // with jittered backoff. Deterministic failures and lifecycle statuses
  // never re-execute, and a retry is skipped once the request's own
  // deadline passed or the service is stopping. Without faults no status
  // is retryable and this costs one branch per batch.
  if (options_.retry_max_attempts > 1) {
    std::vector<size_t> one(1);
    for (size_t i = 0; i < n; ++i) {
      for (int attempt = 1; attempt < options_.retry_max_attempts &&
                            responses[i].status.IsRetryable();
           ++attempt) {
        if (stop_.load(std::memory_order_acquire)) break;
        const int64_t deadline = (*batch)[i].request.deadline_us;
        if (deadline != 0 && RequestContext::NowMicros() >= deadline) break;
        if (options_.retry_backoff_us > 0) {
          const uint32_t cap =
              options_.retry_backoff_us * static_cast<uint32_t>(attempt);
          std::this_thread::sleep_for(
              std::chrono::microseconds(worker->rng.Uniform(cap) + 1));
        }
        n_retries_.fetch_add(1, std::memory_order_relaxed);
        if (m_retries_ != nullptr) m_retries_->Inc();
        responses[i] = ServeResponse();
        one[0] = i;
        if (deadline != 0) {
          worker->ctx.Reset(deadline);
          SetSessionContext(worker, &worker->ctx);
        }
        ExecuteOps(am, batch, one, &responses);
        if (deadline != 0) SetSessionContext(worker, nullptr);
      }
    }
  }

  // Executed outcomes feed the per-class breaker: streaks of I/O,
  // corruption, or deadline failures trip admission into shedding.
  if (breaker_ != nullptr) {
    const int64_t now = RequestContext::NowMicros();
    for (size_t i = 0; i < n; ++i) {
      breaker_->OnResult(responses[i].status, now);
    }
  }

  const uint64_t end_us = NowMicros();
  for (size_t i = 0; i < n; ++i) {
    QueuedRequest& item = (*batch)[i];
    ServeResponse& r = responses[i];
    r.queue_us = start_us > item.enqueue_us ? start_us - item.enqueue_us : 0;
    r.batch_size = static_cast<uint32_t>(n);
    r.done_us = end_us;
    if (h_queue_wait_us_ != nullptr) h_queue_wait_us_->Record(r.queue_us);
    if (h_latency_us_ != nullptr) {
      h_latency_us_->Record(end_us > item.enqueue_us
                                ? end_us - item.enqueue_us
                                : 0);
    }
    item.ticket->Fulfill(std::move(r));
  }
  n_completed_.fetch_add(n, std::memory_order_relaxed);
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  if (n > 1) n_batched_requests_.fetch_add(n, std::memory_order_relaxed);
  if (m_completed_ != nullptr) m_completed_->Inc(n);
  if (m_batches_ != nullptr) m_batches_->Inc();
  if (n > 1 && m_batched_requests_ != nullptr) m_batched_requests_->Inc(n);
  if (h_exec_us_ != nullptr) h_exec_us_->Record(end_us - start_us);
  if (h_batch_occupancy_ != nullptr) h_batch_occupancy_->Record(n);
}

void QueryService::CancelBatch(std::vector<QueuedRequest>* batch,
                               const char* why) {
  if (batch->empty()) return;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    for (const QueuedRequest& item : *batch) {
      admission_.OnDequeue(item.request.tenant);
    }
    if (g_queue_depth_ != nullptr) {
      g_queue_depth_->Set(static_cast<int64_t>(admission_.queue_depth()));
    }
  }
  const uint64_t now = NowMicros();
  for (QueuedRequest& item : *batch) {
    ServeResponse response;
    response.status = Status::Overloaded(why);
    response.done_us = now;
    item.ticket->Fulfill(std::move(response));
  }
  n_rejected_.fetch_add(batch->size(), std::memory_order_relaxed);
  if (m_rejected_shutdown_ != nullptr) {
    m_rejected_shutdown_->Inc(batch->size());
  }
}

void QueryService::Shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    accepting_ = false;
  }
  if (!drain) {
    std::vector<QueuedRequest> cancelled;
    for (auto& w : workers_) {
      std::lock_guard<std::mutex> lock(w->mu);
      w->scheduler.DrainAll(&cancelled);
    }
    CancelBatch(&cancelled, "cancelled: service shutting down");
  }
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) w->cv.notify_all();
  // Workers exit once their scheduler is empty (immediately after a
  // cancelling drain; after executing the backlog otherwise); destroying
  // the pool joins them.
  pool_.reset();
}

IoStats QueryService::TotalSessionIoStats() const {
  IoStats total;
  for (const auto& w : workers_) {
    IoStats s = w->session != nullptr ? w->session->DataIoStats()
                                      : w->snap_session->DataIoStats();
    total.reads += s.reads;
    total.writes += s.writes;
    total.allocs += s.allocs;
    total.frees += s.frees;
  }
  return total;
}

IoStats QueryService::TotalSessionHierarchyIoStats() const {
  IoStats total;
  for (const auto& w : workers_) {
    IoStats s = w->session != nullptr ? w->session->HierarchyIoStats()
                                      : w->snap_session->HierarchyIoStats();
    total.reads += s.reads;
    total.writes += s.writes;
    total.allocs += s.allocs;
    total.frees += s.frees;
  }
  return total;
}

QueryService::Stats QueryService::GetStats() const {
  Stats stats;
  stats.submitted = n_submitted_.load(std::memory_order_relaxed);
  stats.admitted = n_admitted_.load(std::memory_order_relaxed);
  stats.rejected = n_rejected_.load(std::memory_order_relaxed);
  stats.completed = n_completed_.load(std::memory_order_relaxed);
  stats.batches = n_batches_.load(std::memory_order_relaxed);
  stats.batched_requests = n_batched_requests_.load(std::memory_order_relaxed);
  stats.shed_deadline = n_shed_deadline_.load(std::memory_order_relaxed);
  stats.shed_breaker = n_shed_breaker_.load(std::memory_order_relaxed);
  stats.retries = n_retries_.load(std::memory_order_relaxed);
  return stats;
}

size_t QueryService::queue_depth() {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return admission_.queue_depth();
}

}  // namespace serve
}  // namespace ccam
