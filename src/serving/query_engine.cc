#include "serving/query_engine.h"

#include <algorithm>

#include "observability/metric_names.h"

namespace hamming::serving {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point{};

bool HasDeadline(std::chrono::steady_clock::time_point d) {
  return d != kNoDeadline;
}

uint64_t ToMicros(std::chrono::nanoseconds d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

// Steady time_point <-> the RequestSpan nanosecond timebase
// (steady-clock nanos since epoch, see obs::RequestTraceNowNs).
uint64_t ToSpanNs(std::chrono::steady_clock::time_point tp) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

std::chrono::steady_clock::time_point FromSpanNs(uint64_t ns) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(ns)));
}

}  // namespace

QueryEngine::QueryEngine(std::vector<const HammingIndex*> indexes,
                         QueryEngineOptions opts)
    : indexes_(std::move(indexes)), opts_(std::move(opts)) {
  obs::MetricsRegistry* reg = opts_.metrics;
  if (reg != nullptr) {
    namespace mn = obs::metric_names;
    metrics_.queue_wait_us = reg->Histogram(mn::kServingQueueWaitUs);
    metrics_.service_us = reg->Histogram(mn::kServingServiceUs);
    metrics_.e2e_us = reg->Histogram(mn::kServingE2eUs);
    metrics_.batch_size = reg->Histogram(mn::kServingBatchSize);
    metrics_.accepted = reg->Counter(mn::kServingAccepted);
    metrics_.rejected_queue_full = reg->Counter(mn::kServingRejectedQueueFull);
    metrics_.rejected_latency = reg->Counter(mn::kServingRejectedLatency);
    metrics_.deadline_expired = reg->Counter(mn::kServingDeadlineExpired);
    metrics_.batches = reg->Counter(mn::kServingBatches);
    metrics_.queue_depth_peak = reg->Gauge(mn::kServingQueueDepthPeak);
    metrics_.query_hists =
        obs::QueryStatsHistograms::Register(reg, "serving.query");
  }
}

QueryEngine::~QueryEngine() { Shutdown(); }

Status QueryEngine::Start() {
  // A worker could never take a request from a zero-size batch, and an
  // EWMA weight outside (0, 1] never tracks the queue wait.
  if (opts_.max_batch == 0) {
    return Status::InvalidArgument("max_batch must be at least 1");
  }
  if (!(opts_.ewma_alpha > 0.0 && opts_.ewma_alpha <= 1.0)) {
    return Status::InvalidArgument("ewma_alpha must be in (0, 1]");
  }
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      return Status::InvalidArgument("engine already shut down");
    }
    if (started_) return Status::OK();
    started_ = true;
  }
  const std::size_t n = std::max<std::size_t>(1, opts_.num_workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (opts_.sampler != nullptr && opts_.trace != nullptr) {
      opts_.trace->NameProcessThread("serving", static_cast<uint32_t>(i),
                                     "worker-" + std::to_string(i));
    }
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<uint32_t>(i)); });
  }
  return Status::OK();
}

void QueryEngine::Shutdown() {
  std::deque<std::unique_ptr<Pending>> orphans;
  {
    MutexLock lock(&mu_);
    if (stopping_) return;
    stopping_ = true;
    if (!started_) {
      // Nobody will ever drain the queue; fail the waiters now instead
      // of leaving their futures hanging.
      orphans.swap(queue_);
    }
  }
  queue_cv_.NotifyAll();
  const auto drain_now = std::chrono::steady_clock::now();
  const auto is_expired = [&](const std::unique_ptr<Pending>& p) {
    return HasDeadline(p->deadline) && drain_now > p->deadline;
  };
  // Counters are updated before any promise is fulfilled (same rule as
  // ExecuteBatch): a caller waking from get() must see its own expiry.
  uint64_t expired = 0;
  for (const auto& p : orphans) expired += is_expired(p) ? 1 : 0;
  if (expired > 0) {
    MutexLock lock(&mu_);
    counters_.deadline_expired += expired;
  }
  for (auto& p : orphans) {
    // A request whose deadline has already passed completes with the
    // same DeadlineExceeded it would have gotten from a worker drain —
    // the shutdown path must not relabel (or outlive) an expiry.
    if (is_expired(p)) {
      HAMMING_METRIC_ADD(opts_.metrics, metrics_.deadline_expired, 1);
      FailPending(std::move(p),
                  Status::DeadlineExceeded("deadline expired in queue"),
                  /*batch_size=*/0);
    } else {
      FailPending(std::move(p),
                  Status::ResourceExhausted("engine shut down before Start"),
                  /*batch_size=*/0);
    }
  }
  for (Thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

Result<std::future<ServeResult>> QueryEngine::Submit(
    QueryRequest req, std::size_t index_id,
    std::chrono::steady_clock::time_point deadline) {
  if (index_id >= indexes_.size()) {
    return Status::InvalidArgument("index_id out of range");
  }
  auto pending = std::make_unique<Pending>();
  pending->index_id = index_id;
  pending->req = std::move(req);
  pending->enqueued = std::chrono::steady_clock::now();
  pending->deadline = deadline;
  if (opts_.sampler != nullptr) {
    pending->trace_id = opts_.sampler->NextTraceId();
    pending->head_sampled = opts_.sampler->HeadSampled(pending->trace_id);
  }
  std::future<ServeResult> fut = pending->promise.get_future();
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      return Status::ResourceExhausted("engine is shutting down");
    }
    if (queue_.size() >= opts_.queue_capacity) {
      ++counters_.rejected_queue_full;
      HAMMING_METRIC_ADD(opts_.metrics, metrics_.rejected_queue_full, 1);
      return Status::ResourceExhausted(
          "serving queue full (" + std::to_string(opts_.queue_capacity) +
          " requests)");
    }
    if (opts_.latency_budget.count() > 0 && !queue_.empty() &&
        ewma_queue_wait_us_ >
            static_cast<double>(opts_.latency_budget.count())) {
      ++counters_.rejected_latency;
      HAMMING_METRIC_ADD(opts_.metrics, metrics_.rejected_latency, 1);
      return Status::ResourceExhausted("latency budget exceeded (ewma wait)");
    }
    queue_.push_back(std::move(pending));
    ++counters_.accepted;
    HAMMING_METRIC_ADD(opts_.metrics, metrics_.accepted, 1);
    HAMMING_METRIC_SET(opts_.metrics, metrics_.queue_depth_peak,
                       static_cast<int64_t>(queue_.size()));
  }
  queue_cv_.NotifyOne();
  return fut;
}

Result<ServeResult> QueryEngine::Serve(QueryRequest req, std::size_t index_id,
                                       std::chrono::microseconds timeout) {
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  if (timeout.count() > 0) {
    deadline = std::chrono::steady_clock::now() + timeout;
  }
  HAMMING_ASSIGN_OR_RETURN(std::future<ServeResult> fut,
                           Submit(std::move(req), index_id, deadline));
  return fut.get();
}

ServingCounters QueryEngine::counters() const {
  MutexLock lock(&mu_);
  return counters_;
}

void QueryEngine::SetQueueWaitEwmaForTest(double ewma_us) {
  MutexLock lock(&mu_);
  ewma_queue_wait_us_ = ewma_us;
}

void QueryEngine::GatherBatchLocked(
    std::vector<std::unique_ptr<Pending>>* batch) {
  const auto now = std::chrono::steady_clock::now();
  const std::size_t key_index = queue_.front()->index_id;
  const QueryKind key_kind = queue_.front()->req.kind;
  while (!queue_.empty() && batch->size() < opts_.max_batch &&
         queue_.front()->index_id == key_index &&
         queue_.front()->req.kind == key_kind) {
    std::unique_ptr<Pending> p = std::move(queue_.front());
    queue_.pop_front();
    p->gathered = now;
    const double wait_us = static_cast<double>(ToMicros(now - p->enqueued));
    ewma_queue_wait_us_ = opts_.ewma_alpha * wait_us +
                          (1.0 - opts_.ewma_alpha) * ewma_queue_wait_us_;
    batch->push_back(std::move(p));
  }
}

void QueryEngine::WorkerLoop(uint32_t worker_id) {
  std::vector<std::unique_ptr<Pending>> batch;
  mu_.Lock();
  for (;;) {
    while (queue_.empty() && !stopping_) queue_cv_.Wait(&mu_);
    if (queue_.empty() && stopping_) break;  // drained; time to go
    batch.clear();
    GatherBatchLocked(&batch);
    if (opts_.batch_linger.count() > 0 && batch.size() < opts_.max_batch &&
        !stopping_) {
      // Hold the batch open briefly: more same-kind arrivals amortize
      // the index call further, and the linger bounds the latency cost.
      const auto linger_until =
          std::chrono::steady_clock::now() + opts_.batch_linger;
      while (batch.size() < opts_.max_batch && !stopping_) {
        if (!queue_.empty()) {
          if (queue_.front()->index_id != batch.front()->index_id ||
              queue_.front()->req.kind != batch.front()->req.kind) {
            break;  // different stream; let the next worker have it
          }
          GatherBatchLocked(&batch);
          continue;
        }
        if (queue_cv_.WaitUntil(&mu_, linger_until)) break;  // timed out
      }
    }
    mu_.Unlock();
    ExecuteBatch(std::move(batch), worker_id);
    batch.clear();
    mu_.Lock();
  }
  mu_.Unlock();
}

void QueryEngine::FailPending(std::unique_ptr<Pending> p, Status status,
                              std::size_t batch_size) {
  const auto now = std::chrono::steady_clock::now();
  ServeResult r;
  r.response.status = std::move(status);
  r.queue_wait = now - p->enqueued;
  r.response.stats.serving_queue_nanos =
      static_cast<uint64_t>(r.queue_wait.count());
  r.batch_size = batch_size;
  r.completed_at = now;
  HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.queue_wait_us,
                         ToMicros(r.queue_wait));
  HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.e2e_us,
                         ToMicros(now - p->enqueued));
  p->promise.set_value(std::move(r));
}

void QueryEngine::ExecuteBatch(std::vector<std::unique_ptr<Pending>> batch,
                               uint32_t worker_id) {
  if (batch.empty()) return;
  const auto exec_start = std::chrono::steady_clock::now();

  // Queued expiries never reach the index.
  std::vector<std::unique_ptr<Pending>> live;
  std::vector<std::unique_ptr<Pending>> dead;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (HasDeadline(p->deadline) && exec_start > p->deadline) {
      dead.push_back(std::move(p));
    } else {
      live.push_back(std::move(p));
    }
  }
  // Counters are updated BEFORE the promises are fulfilled: a caller
  // that wakes from get() must already see its own expiry in
  // counters(), or the count is racy from the caller's point of view.
  if (!dead.empty()) {
    MutexLock lock(&mu_);
    counters_.deadline_expired += dead.size();
  }
  for (auto& p : dead) {
    HAMMING_METRIC_ADD(opts_.metrics, metrics_.deadline_expired, 1);
    // An expired request still belongs in the exemplar log — a
    // calibration corpus that omits the requests the engine gave up
    // on would under-represent exactly the overload it must model.
    const char kind = p->req.kind == QueryKind::kKnn ? 'k' : 'r';
    const uint64_t param =
        p->req.kind == QueryKind::kKnn ? p->req.k : p->req.h;
    RequestTiming t;
    t.exec_start = exec_start;
    t.svc_start = exec_start;
    t.svc_end = exec_start;
    t.done = std::chrono::steady_clock::now();
    RecordRequestTelemetry(*p, kind, param, /*ok=*/false,
                           obs::QueryStats{}, /*batch_size=*/0, worker_id,
                           t, {});
    FailPending(std::move(p),
                Status::DeadlineExceeded("deadline expired in queue"),
                /*batch_size=*/0);
  }
  if (!live.empty()) {
    const std::size_t n = live.size();
    const HammingIndex* index = indexes_[live.front()->index_id];
    const QueryKind kind = live.front()->req.kind;
    std::vector<QueryRequest> requests;
    requests.reserve(n);
    for (auto& p : live) requests.push_back(std::move(p->req));
    std::vector<QueryResponse> responses(n);

    // Record spans emitted below the serving layer (the epoch pin of a
    // concurrent index) for the duration of the batched call. Installed
    // only when tracing is on, so the untraced path stays span-free.
    obs::SpanSink pin_sink;
    const auto svc_start = std::chrono::steady_clock::now();
    Status batch_status;
    {
      obs::SpanSinkScope sink_scope(opts_.sampler != nullptr ? &pin_sink
                                                             : nullptr);
      batch_status =
          kind == QueryKind::kKnn
              ? index->KnnBatch({requests.data(), n}, {responses.data(), n})
              : index->SearchBatch({requests.data(), n}, {responses.data(), n});
    }
    const auto svc_end = std::chrono::steady_clock::now();
    const auto service_time = svc_end - svc_start;
    const auto done = svc_end;

    // Same ordering rule as the queued expiries above: classify
    // mid-service expiries and publish every counter this batch will
    // bump before any promise is fulfilled.
    std::vector<bool> expired_mid(n, false);
    uint64_t in_service_expired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (HasDeadline(live[i]->deadline) && done > live[i]->deadline &&
          batch_status.ok() && responses[i].status.ok()) {
        expired_mid[i] = true;
        ++in_service_expired;
      }
    }
    {
      MutexLock lock(&mu_);
      counters_.deadline_expired += in_service_expired;
      ++counters_.batches;
      counters_.batched_queries += n;
    }
    HAMMING_METRIC_ADD(opts_.metrics, metrics_.batches, 1);

    HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.batch_size, n);
    for (std::size_t i = 0; i < n; ++i) {
      std::unique_ptr<Pending> p = std::move(live[i]);
      ServeResult r;
      r.response = std::move(responses[i]);
      if (!batch_status.ok() && r.response.status.ok()) {
        r.response.status = batch_status;
      }
      if (expired_mid[i]) {
        // Expired mid-service: the caller has stopped waiting, so the
        // results are discarded and the expiry recorded.
        r.response.ids.clear();
        r.response.distances.clear();
        r.response.has_distances = false;
        r.response.neighbors.clear();
        r.response.status =
            Status::DeadlineExceeded("deadline expired during service");
        HAMMING_METRIC_ADD(opts_.metrics, metrics_.deadline_expired, 1);
      }
      r.queue_wait = exec_start - p->enqueued;
      r.response.stats.serving_queue_nanos =
          static_cast<uint64_t>(r.queue_wait.count());
      r.service_time = service_time;
      r.batch_size = n;
      r.completed_at = done;
      HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.queue_wait_us,
                             ToMicros(r.queue_wait));
      HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.service_us,
                             ToMicros(service_time));
      HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.e2e_us,
                             ToMicros(done - p->enqueued));
      if (opts_.metrics != nullptr) {
        metrics_.query_hists.Observe(opts_.metrics, r.response.stats);
      }
      const char kind_c = kind == QueryKind::kKnn ? 'k' : 'r';
      const uint64_t param =
          kind == QueryKind::kKnn ? requests[i].k : requests[i].h;
      RequestTiming t;
      t.exec_start = exec_start;
      t.svc_start = svc_start;
      t.svc_end = svc_end;
      t.done = done;
      RecordRequestTelemetry(*p, kind_c, param, r.response.status.ok(),
                             r.response.stats, n, worker_id, t,
                             pin_sink.spans());
      p->promise.set_value(std::move(r));
    }
  }
}

void QueryEngine::RecordRequestTelemetry(
    const Pending& p, char kind, uint64_t param, bool ok,
    const obs::QueryStats& stats, std::size_t batch_size, uint32_t worker_id,
    const RequestTiming& t, const std::vector<obs::RequestSpan>& pin_spans) {
  if (opts_.sampler == nullptr) return;
  const auto e2e = t.done - p.enqueued;
  const bool slow = opts_.sampler->Slow(
      std::chrono::duration_cast<std::chrono::nanoseconds>(e2e));

  // Assemble the span stack in phase order. `gathered` is unset when a
  // request expired before any worker picked it up; the queue span then
  // runs to exec_start and batch_form is empty.
  const auto gathered =
      p.gathered == std::chrono::steady_clock::time_point{} ? t.exec_start
                                                            : p.gathered;
  std::vector<obs::RequestSpan> spans;
  spans.reserve(4 + pin_spans.size());
  spans.push_back(obs::RequestSpan{obs::RequestPhase::kQueue,
                                   ToSpanNs(p.enqueued), ToSpanNs(gathered),
                                   0});
  spans.push_back(obs::RequestSpan{obs::RequestPhase::kBatchForm,
                                   ToSpanNs(gathered), ToSpanNs(t.exec_start),
                                   0});
  for (const obs::RequestSpan& s : pin_spans) spans.push_back(s);
  spans.push_back(obs::RequestSpan{obs::RequestPhase::kKernel,
                                   ToSpanNs(t.svc_start), ToSpanNs(t.svc_end),
                                   batch_size});
  spans.push_back(obs::RequestSpan{obs::RequestPhase::kRespond,
                                   ToSpanNs(t.svc_end), ToSpanNs(t.done), 0});

  if (opts_.trace != nullptr && (p.head_sampled || slow)) {
    const double req_start_us = opts_.sampler->ToTraceMicros(p.enqueued);
    const double req_dur_us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            e2e)
            .count();
    // Parent request span with an admit instant at its start, children
    // for each phase — all on this worker's lane of the auxiliary
    // "serving" process.
    opts_.trace->AddProcessSpan(
        "serving", worker_id, "req " + std::to_string(p.trace_id), "request",
        req_start_us, req_dur_us,
        std::string(slow ? "slow" : "head") + " kind=" + kind +
            " batch=" + std::to_string(batch_size));
    opts_.trace->AddProcessSpan("serving", worker_id, "admit",
                                "request.phase", req_start_us, 0.0, "",
                                /*instant=*/true);
    for (const obs::RequestSpan& s : spans) {
      const double start_us =
          opts_.sampler->ToTraceMicros(FromSpanNs(s.start_ns));
      const double dur_us = static_cast<double>(s.DurationNs()) / 1000.0;
      std::string detail;
      if (s.phase == obs::RequestPhase::kEpochPin) {
        detail = "epoch=" + std::to_string(s.detail);
      }
      opts_.trace->AddProcessSpan("serving", worker_id,
                                  obs::RequestPhaseName(s.phase),
                                  "request.phase", start_us, dur_us, detail);
    }
  }

  if (opts_.query_log != nullptr) {
    obs::QueryLogEntry entry;
    entry.trace_id = p.trace_id;
    entry.head_sampled = p.head_sampled;
    entry.slow = slow;
    entry.ok = ok;
    entry.kind = kind;
    entry.param = param;
    entry.e2e_us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            e2e)
            .count();
    entry.queue_us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            t.exec_start - p.enqueued)
            .count();
    entry.service_us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            t.svc_end - t.svc_start)
            .count();
    entry.batch_size = batch_size;
    entry.stats = stats;
    entry.spans = std::move(spans);
    opts_.query_log->Record(std::move(entry));
  }
}

}  // namespace hamming::serving
