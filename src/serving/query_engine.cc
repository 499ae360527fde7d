#include "serving/query_engine.h"

#include <algorithm>

#include "observability/metric_names.h"

namespace hamming::serving {

namespace {

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

QueryEngine::QueryEngine(const HammingIndex* index, QueryEngineOptions opts)
    : index_(index), opts_(std::move(opts)) {
  obs::MetricsRegistry* reg = opts_.metrics;
  if (reg != nullptr) {
    namespace mn = obs::metric_names;
    metrics_.queue_wait_us = reg->Histogram(mn::kServingQueueWaitUs);
    metrics_.service_us = reg->Histogram(mn::kServingServiceUs);
    metrics_.e2e_us = reg->Histogram(mn::kServingE2eUs);
    metrics_.batch_size = reg->Histogram(mn::kServingBatchSize);
    metrics_.accepted = reg->Counter(mn::kServingAccepted);
    metrics_.rejected_queue_full = reg->Counter(mn::kServingRejectedQueueFull);
    metrics_.batches = reg->Counter(mn::kServingBatches);
    metrics_.queue_depth_peak = reg->Gauge(mn::kServingQueueDepthPeak);
    metrics_.query_hists =
        obs::QueryStatsHistograms::Register(reg, "serving.query");
  }
}

QueryEngine::~QueryEngine() { Shutdown(); }

Status QueryEngine::Start() {
  // A worker could never take a request from a zero-size batch.
  if (opts_.max_batch == 0) {
    return Status::InvalidArgument("max_batch must be at least 1");
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
  for (auto& p : orphans) {
    const auto now = std::chrono::steady_clock::now();
    ServeResult r;
    r.response.status =
        Status::ResourceExhausted("engine shut down before Start");
    r.queue_wait = now - p->enqueued;
    r.response.stats.serving_queue_nanos =
        static_cast<uint64_t>(r.queue_wait.count());
    r.completed_at = now;
    HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.queue_wait_us,
                           ToMicros(r.queue_wait));
    HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.e2e_us,
                           ToMicros(r.queue_wait));
    p->promise.set_value(std::move(r));
  }
  for (Thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

Result<std::future<ServeResult>> QueryEngine::Submit(QueryRequest req) {
  auto pending = std::make_unique<Pending>();
  pending->req = std::move(req);
  pending->enqueued = std::chrono::steady_clock::now();
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
    queue_.push_back(std::move(pending));
    ++counters_.accepted;
    HAMMING_METRIC_ADD(opts_.metrics, metrics_.accepted, 1);
    HAMMING_METRIC_SET(opts_.metrics, metrics_.queue_depth_peak,
                       static_cast<int64_t>(queue_.size()));
  }
  queue_cv_.NotifyOne();
  return fut;
}

Result<ServeResult> QueryEngine::Serve(QueryRequest req) {
  HAMMING_ASSIGN_OR_RETURN(std::future<ServeResult> fut,
                           Submit(std::move(req)));
  return fut.get();
}

ServingCounters QueryEngine::counters() const {
  MutexLock lock(&mu_);
  return counters_;
}

std::vector<std::unique_ptr<QueryEngine::Pending>>
QueryEngine::GatherBatchLocked() {
  std::vector<std::unique_ptr<Pending>> batch;
  const auto now = std::chrono::steady_clock::now();
  const QueryKind kind = queue_.front()->req.kind;
  while (!queue_.empty() && batch.size() < opts_.max_batch &&
         queue_.front()->req.kind == kind) {
    queue_.front()->gathered = now;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

void QueryEngine::WorkerLoop(uint32_t worker_id) {
  mu_.Lock();
  for (;;) {
    while (queue_.empty() && !stopping_) queue_cv_.Wait(&mu_);
    if (queue_.empty()) break;  // stopping and drained; time to go
    std::vector<std::unique_ptr<Pending>> batch = GatherBatchLocked();
    mu_.Unlock();
    ExecuteBatch(std::move(batch), worker_id);
    mu_.Lock();
  }
  mu_.Unlock();
}

void QueryEngine::ExecuteBatch(std::vector<std::unique_ptr<Pending>> batch,
                               uint32_t worker_id) {
  BatchTiming t;
  t.exec_start = std::chrono::steady_clock::now();
  const std::size_t n = batch.size();
  const QueryKind kind = batch.front()->req.kind;
  std::vector<QueryRequest> requests;
  requests.reserve(n);
  for (auto& p : batch) requests.push_back(std::move(p->req));
  std::vector<QueryResponse> responses(n);

  // Record spans emitted below the serving layer (the epoch pin of a
  // concurrent index) for the duration of the batched call. Installed
  // only when tracing is on, so the untraced path stays span-free.
  obs::SpanSink pin_sink;
  t.svc_start = std::chrono::steady_clock::now();
  Status batch_status;
  {
    obs::SpanSinkScope sink_scope(opts_.sampler != nullptr ? &pin_sink
                                                           : nullptr);
    batch_status =
        kind == QueryKind::kKnn
            ? index_->KnnBatch({requests.data(), n}, {responses.data(), n})
            : index_->SearchBatch({requests.data(), n}, {responses.data(), n});
  }
  t.svc_end = std::chrono::steady_clock::now();
  const auto service_time = t.svc_end - t.svc_start;

  // Counters are published before any promise is fulfilled: a caller
  // that wakes from get() must already see its own batch in counters().
  {
    MutexLock lock(&mu_);
    ++counters_.batches;
    counters_.batched_queries += n;
  }
  HAMMING_METRIC_ADD(opts_.metrics, metrics_.batches, 1);
  HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.batch_size, n);

  const char kind_c = kind == QueryKind::kKnn ? 'k' : 'r';
  for (std::size_t i = 0; i < n; ++i) {
    Pending& p = *batch[i];
    ServeResult r;
    r.response = std::move(responses[i]);
    if (!batch_status.ok() && r.response.status.ok()) {
      r.response.status = batch_status;
    }
    r.queue_wait = t.exec_start - p.enqueued;
    r.response.stats.serving_queue_nanos =
        static_cast<uint64_t>(r.queue_wait.count());
    r.service_time = service_time;
    r.batch_size = n;
    r.completed_at = t.svc_end;
    HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.queue_wait_us,
                           ToMicros(r.queue_wait));
    HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.service_us,
                           ToMicros(service_time));
    HAMMING_METRIC_OBSERVE(opts_.metrics, metrics_.e2e_us,
                           ToMicros(t.svc_end - p.enqueued));
    if (opts_.metrics != nullptr) {
      metrics_.query_hists.Observe(opts_.metrics, r.response.stats);
    }
    const uint64_t param =
        kind == QueryKind::kKnn ? requests[i].k : requests[i].h;
    RecordRequestTelemetry(p, kind_c, param, r.response.status.ok(),
                           r.response.stats, n, worker_id, t,
                           pin_sink.spans());
    p.promise.set_value(std::move(r));
  }
}

void QueryEngine::RecordRequestTelemetry(
    const Pending& p, char kind, uint64_t param, bool ok,
    const obs::QueryStats& stats, std::size_t batch_size, uint32_t worker_id,
    const BatchTiming& t, const std::vector<obs::RequestSpan>& pin_spans) {
  if (opts_.sampler == nullptr) return;
  const auto e2e = t.svc_end - p.enqueued;
  const bool slow = opts_.sampler->Slow(
      std::chrono::duration_cast<std::chrono::nanoseconds>(e2e));

  // Assemble the span stack in phase order.
  std::vector<obs::RequestSpan> spans;
  spans.reserve(4 + pin_spans.size());
  spans.push_back(obs::RequestSpan{obs::RequestPhase::kQueue,
                                   ToSpanNs(p.enqueued), ToSpanNs(p.gathered),
                                   0});
  spans.push_back(obs::RequestSpan{obs::RequestPhase::kBatchForm,
                                   ToSpanNs(p.gathered),
                                   ToSpanNs(t.exec_start), 0});
  for (const obs::RequestSpan& s : pin_spans) spans.push_back(s);
  spans.push_back(obs::RequestSpan{obs::RequestPhase::kKernel,
                                   ToSpanNs(t.svc_start), ToSpanNs(t.svc_end),
                                   batch_size});
  spans.push_back(obs::RequestSpan{obs::RequestPhase::kRespond,
                                   ToSpanNs(t.svc_end), ToSpanNs(t.svc_end),
                                   0});

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
