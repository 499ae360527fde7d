// Concurrent online query engine (the serving layer).
//
// Everything below src/serving/ is a library that answers one query (or
// one caller-assembled batch) at a time; this layer is what turns it
// into a *system*: a stream of independent range/kNN queries from many
// client threads is funneled through a bounded admission queue, coalesced
// by kind into batches, and executed by a worker pool against one shared
// read-only HammingIndex via the batch-first index surface
// (SearchBatch / KnnBatch, index/query.h).
//
// Data flow:
//
//   clients --Submit()--> [bounded queue] --workers--> [batcher] -->
//     index->SearchBatch/KnnBatch --> per-request promises
//
// Admission control. Submit() rejects with Status::ResourceExhausted when
// the queue already holds `queue_capacity` requests; the capacity is the
// only admission limit. An open-loop client that outruns the workers
// sees rejections instead of an unbounded queue.
//
// Batching. A worker drains the longest FIFO prefix of the queue that
// shares one query kind, up to `max_batch`, and issues ONE batched index
// call for it. That is where the kernel-level amortization (one streaming
// pass over the stored codes shared by every query in the batch —
// kernels::MultiWithinDistance / MultiKnn) is harvested across concurrent
// *clients*, not just across stored codes. A worker dispatches what has
// queued the moment it wakes: under backlog a batch is the requests that
// arrived while the previous one ran, and an idle engine serves a lone
// request at once. Requests in a batch are independent, and the
// batch-first index contract guarantees each response is byte-identical
// to sequential execution, so coalescing is invisible to callers. Queue
// wait is stamped into the response's QueryStats::serving_queue_nanos so
// work profiles and queueing delay travel together.
//
// Threading. Built exclusively on the annotated primitives of
// common/sync.h (the [raw-sync] check and the TSan stage of
// scripts/check.sh keep it honest). The engine never mutates the index.
// A plain (externally synchronized) index must not be mutated by anyone
// else while the engine serves it — HammingIndex reads are const but not
// synchronized against writers. An *internally synchronized* index
// (ConcurrentHAIndex) lifts that restriction: its owner may run a live
// Insert/Delete stream while the engine serves queries. Because the
// engine issues exactly ONE batched index call per coalesced batch, such
// an index pins one published epoch snapshot for the whole batch — every
// request coalesced together observes the same point-in-time dataset
// (see index/concurrent_ha_index.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "index/hamming_index.h"
#include "index/query.h"
#include "observability/metrics.h"
#include "observability/query_log.h"
#include "observability/query_stats.h"
#include "observability/request_trace.h"
#include "observability/trace.h"

namespace hamming::serving {

/// \brief Tuning knobs of a QueryEngine.
struct QueryEngineOptions {
  /// Worker threads executing batched index calls.
  std::size_t num_workers = 4;
  /// Maximum queued (admitted, not yet executing) requests; Submit
  /// beyond this rejects with kResourceExhausted.
  std::size_t queue_capacity = 1024;
  /// Maximum requests coalesced into one batched index call; at least 1
  /// (Start refuses 0).
  std::size_t max_batch = 32;
  /// Optional registry receiving the serving.* metrics and the
  /// serving.query.* per-request work histograms. May be null.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional request tracer. When set, every request gets a trace id
  /// and phase timestamps; head-sampled (1-in-N, deterministic in the
  /// sampler seed) and slow (past the sampler's slow_threshold, tail
  /// capture) requests are exported to `trace` and flagged in
  /// `query_log`. Null = per-request tracing off, zero cost.
  obs::TraceSampler* sampler = nullptr;
  /// Where sampled request spans render: an auxiliary "serving" process
  /// on the Chrome/Perfetto timeline, one thread lane per worker.
  /// Only consulted when `sampler` is set. May be null.
  obs::TraceCollector* trace = nullptr;
  /// Optional sampled exemplar log; every served request is offered,
  /// the log's reservoir/slow policy decides what is kept. Span
  /// breakdowns are attached when `sampler` is set.
  obs::QueryLog* query_log = nullptr;
};

/// \brief What the engine hands back for one request.
struct ServeResult {
  QueryResponse response;
  /// Time spent in the admission queue before the batch was formed
  /// (also stamped into response.stats.serving_queue_nanos).
  std::chrono::nanoseconds queue_wait{0};
  /// Wall time of the batched index call that served this request.
  std::chrono::nanoseconds service_time{0};
  /// How many requests shared that index call (>= 1).
  std::size_t batch_size = 0;
  /// When the engine completed the request (steady clock) — lets
  /// open-loop load generators compute latency from the *scheduled*
  /// arrival without a harvest thread per request.
  std::chrono::steady_clock::time_point completed_at{};
};

/// \brief Monotonic totals since Start (reads are racy-free snapshots).
struct ServingCounters {
  uint64_t accepted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t batches = 0;          // batched index calls issued
  uint64_t batched_queries = 0;  // requests served through those calls
};

/// \brief The concurrent serving engine over one shared HammingIndex.
/// Const index access only; engine lifetime must sit inside the index's
/// lifetime.
class QueryEngine {
 public:
  /// \brief Serves the given read-only index; `index` must be non-null
  /// and valid until Shutdown.
  QueryEngine(const HammingIndex* index, QueryEngineOptions opts);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// \brief Spawns the worker pool. Requests submitted before Start sit
  /// in the queue (subject to admission control) until workers exist.
  /// InvalidArgument, with no worker started, when max_batch is 0;
  /// queued requests then fail with ResourceExhausted at Shutdown, as on
  /// an engine never started.
  Status Start();

  /// \brief Stops accepting work, drains every queued request, joins the
  /// workers. Requests still queued when Shutdown is called ARE served
  /// (drain-on-shutdown); requests submitted after it are rejected.
  /// Idempotent. If Start was never called, queued requests complete
  /// with kResourceExhausted instead (there is nobody to serve them), so
  /// every admitted request's future is completed and none are dropped.
  void Shutdown();

  /// \brief Enqueues one query. Returns the future carrying the
  /// ServeResult, or kResourceExhausted when the queue is full or the
  /// engine is shutting down.
  Result<std::future<ServeResult>> Submit(QueryRequest req);

  /// \brief Submit + wait: serves one query synchronously.
  Result<ServeResult> Serve(QueryRequest req);

  ServingCounters counters() const;

 private:
  struct Pending {
    QueryRequest req;
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point gathered;
    // Telemetry identity (zero / unset when no sampler is configured).
    uint64_t trace_id = 0;
    bool head_sampled = false;
  };

  /// Phase boundaries of one batch's trip through a worker, for span
  /// assembly (all on the steady clock).
  struct BatchTiming {
    std::chrono::steady_clock::time_point exec_start{};
    std::chrono::steady_clock::time_point svc_start{};
    std::chrono::steady_clock::time_point svc_end{};
  };

  struct Metrics {
    obs::MetricId queue_wait_us = obs::kOverflowMetric;
    obs::MetricId service_us = obs::kOverflowMetric;
    obs::MetricId e2e_us = obs::kOverflowMetric;
    obs::MetricId batch_size = obs::kOverflowMetric;
    obs::MetricId accepted = obs::kOverflowMetric;
    obs::MetricId rejected_queue_full = obs::kOverflowMetric;
    obs::MetricId batches = obs::kOverflowMetric;
    obs::MetricId queue_depth_peak = obs::kOverflowMetric;
    obs::QueryStatsHistograms query_hists;
  };

  void WorkerLoop(uint32_t worker_id);
  /// Pops the longest same-kind FIFO prefix (up to max_batch) off the
  /// non-empty queue.
  std::vector<std::unique_ptr<Pending>> GatherBatchLocked()
      HAMMING_REQUIRES(mu_);
  /// Executes one gathered batch outside the lock and fulfills its
  /// promises. `worker_id` labels the trace lane.
  void ExecuteBatch(std::vector<std::unique_ptr<Pending>> batch,
                    uint32_t worker_id);
  /// Assembles one request's span stack and offers it to the configured
  /// trace (head-sampled or slow only) and query log (every request).
  /// No-op unless a sampler is configured.
  void RecordRequestTelemetry(const Pending& p, char kind, uint64_t param,
                              bool ok, const obs::QueryStats& stats,
                              std::size_t batch_size, uint32_t worker_id,
                              const BatchTiming& t,
                              const std::vector<obs::RequestSpan>& pin_spans);

  const HammingIndex* const index_;
  const QueryEngineOptions opts_;
  Metrics metrics_;

  mutable Mutex mu_;
  CondVar queue_cv_;
  std::deque<std::unique_ptr<Pending>> queue_ HAMMING_GUARDED_BY(mu_);
  bool started_ HAMMING_GUARDED_BY(mu_) = false;
  bool stopping_ HAMMING_GUARDED_BY(mu_) = false;
  ServingCounters counters_ HAMMING_GUARDED_BY(mu_);
  std::vector<Thread> workers_;  // mutated only by Start/Shutdown
};

}  // namespace hamming::serving
