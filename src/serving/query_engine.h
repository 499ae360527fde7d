// Concurrent online query engine (the serving layer).
//
// Everything below src/serving/ is a library that answers one query (or
// one caller-assembled batch) at a time; this layer is what turns it
// into a *system*: a stream of independent range/kNN queries from many
// client threads is funneled through a bounded admission queue, coalesced
// by kind into batches, and executed by a worker pool against shared
// read-only HammingIndex instances via the batch-first index surface
// (SearchBatch / KnnBatch, index/query.h).
//
// Data flow:
//
//   clients --Submit()--> [bounded queue] --workers--> [batcher] -->
//     index->SearchBatch/KnnBatch --> per-request promises
//
// Admission control. Submit() rejects with Status::ResourceExhausted when
// (a) the queue already holds `queue_capacity` requests, or (b) a latency
// budget is configured and the EWMA of recently observed queue waits
// exceeds it while requests are still queued — load shedding: when the
// engine is provably behind, refusing new work at the door keeps the tail
// of the accepted work bounded instead of letting every request time out.
//
// Batching. A worker drains the longest FIFO prefix of the queue that
// targets the same (index, kind), up to `max_batch`, and issues ONE
// batched index call for it. That is where the kernel-level amortization
// (one streaming pass over the stored codes shared by every query in the
// batch — kernels::MultiWithinDistance / MultiKnn) is harvested across
// concurrent *clients*, not just across stored codes. Requests in a batch
// are independent, and the batch-first index contract guarantees each
// response is byte-identical to sequential execution, so coalescing is
// invisible to callers. An optional `batch_linger` lets a worker wait
// briefly for the queue to fill before dispatching a small batch —
// trading a bounded latency add for better amortization.
//
// Deadlines. Each request may carry an absolute deadline. A request that
// expires while queued is completed with Status::DeadlineExceeded without
// touching the index; one that expires *during* service has its results
// discarded and the same status set (the caller stopped waiting — the
// work is wasted either way, and the serving.deadline_expired counter
// records it). Queue wait is stamped into the response's
// QueryStats::serving_queue_nanos so work profiles and queueing delay
// travel together.
//
// Threading. Built exclusively on the annotated primitives of
// common/sync.h (the raw-sync lint ban and the TSan stage of
// scripts/check.sh keep it honest). The engine never mutates the indexes.
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
  /// How long a worker may hold a non-full batch open waiting for more
  /// same-kind requests. Zero = dispatch immediately (latency-first).
  std::chrono::microseconds batch_linger{0};
  /// Queue-wait EWMA above which Submit sheds new requests while the
  /// queue is non-empty. Zero = shedding disabled (queue capacity is
  /// then the only admission limit).
  std::chrono::microseconds latency_budget{0};
  /// Smoothing factor of the queue-wait EWMA in (0, 1]; higher reacts
  /// faster to load changes. Start refuses a value outside that range.
  double ewma_alpha = 0.2;
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
  /// Optional sampled exemplar log; every completed (or expired)
  /// request is offered, the log's reservoir/slow policy decides what
  /// is kept. Span breakdowns are attached when `sampler` is set.
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
  uint64_t rejected_latency = 0;   // shed by the latency budget
  uint64_t deadline_expired = 0;   // queued or in-service expiries
  uint64_t batches = 0;            // batched index calls issued
  uint64_t batched_queries = 0;    // requests served through those calls
};

/// \brief The concurrent serving engine over shared HammingIndex
/// instances. Const index access only; engine lifetime must sit inside
/// the indexes' lifetime.
class QueryEngine {
 public:
  /// \brief Serves the given read-only indexes. `indexes` must be
  /// non-empty and the pointers non-null and valid until Shutdown.
  QueryEngine(std::vector<const HammingIndex*> indexes,
              QueryEngineOptions opts);
  /// \brief Single-index convenience.
  QueryEngine(const HammingIndex* index, QueryEngineOptions opts)
      : QueryEngine(std::vector<const HammingIndex*>{index},
                    std::move(opts)) {}
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// \brief Spawns the worker pool. Requests submitted before Start sit
  /// in the queue (subject to admission control) until workers exist.
  /// InvalidArgument, with no worker started, when max_batch is 0 or
  /// ewma_alpha is outside (0, 1]; queued requests then fail with
  /// ResourceExhausted at Shutdown, as on an engine never started.
  Status Start();

  /// \brief Stops accepting work, drains every queued request, joins the
  /// workers. Requests still queued when Shutdown is called ARE served
  /// (drain-on-shutdown); requests submitted after it are rejected.
  /// Idempotent. If Start was never called, queued requests are failed
  /// instead (there is nobody to serve them): a request whose deadline
  /// has already passed completes with kDeadlineExceeded — exactly what
  /// a worker drain would report — and the rest with kResourceExhausted.
  /// Either way every admitted request's future is completed; none are
  /// dropped and none are served after their deadline.
  void Shutdown();

  /// \brief Enqueues one query against indexes()[index_id]. Returns the
  /// future carrying the ServeResult, or a non-OK status when admission
  /// control rejects (kResourceExhausted) or index_id is out of range
  /// (kInvalidArgument). `deadline` of time_point{} (the default) means
  /// no deadline.
  Result<std::future<ServeResult>> Submit(
      QueryRequest req, std::size_t index_id = 0,
      std::chrono::steady_clock::time_point deadline = {});

  /// \brief Submit + wait: serves one query synchronously, with an
  /// optional relative timeout that becomes the request's deadline.
  Result<ServeResult> Serve(QueryRequest req, std::size_t index_id = 0,
                            std::chrono::microseconds timeout =
                                std::chrono::microseconds{0});

  ServingCounters counters() const;
  std::size_t num_indexes() const { return indexes_.size(); }
  const QueryEngineOptions& options() const { return opts_; }

  /// \brief Test-only: overwrites the queue-wait EWMA (microseconds) so
  /// latency-budget shedding can be exercised deterministically without
  /// staging a real convoy.
  void SetQueueWaitEwmaForTest(double ewma_us);

 private:
  struct Pending {
    std::size_t index_id = 0;
    QueryRequest req;
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  // max() = none
    // Telemetry identity (zero / unset when no sampler is configured).
    uint64_t trace_id = 0;
    bool head_sampled = false;
    std::chrono::steady_clock::time_point gathered{};
  };

  /// Phase boundaries of one request's trip through a batch, for span
  /// assembly (all on the steady clock).
  struct RequestTiming {
    std::chrono::steady_clock::time_point exec_start{};
    std::chrono::steady_clock::time_point svc_start{};
    std::chrono::steady_clock::time_point svc_end{};
    std::chrono::steady_clock::time_point done{};
  };

  struct Metrics {
    obs::MetricId queue_wait_us = obs::kOverflowMetric;
    obs::MetricId service_us = obs::kOverflowMetric;
    obs::MetricId e2e_us = obs::kOverflowMetric;
    obs::MetricId batch_size = obs::kOverflowMetric;
    obs::MetricId accepted = obs::kOverflowMetric;
    obs::MetricId rejected_queue_full = obs::kOverflowMetric;
    obs::MetricId rejected_latency = obs::kOverflowMetric;
    obs::MetricId deadline_expired = obs::kOverflowMetric;
    obs::MetricId batches = obs::kOverflowMetric;
    obs::MetricId queue_depth_peak = obs::kOverflowMetric;
    obs::QueryStatsHistograms query_hists;
  };

  void WorkerLoop(uint32_t worker_id);
  /// Pops the longest same-(index, kind) FIFO prefix (up to max_batch)
  /// off the queue. Caller holds mu_.
  void GatherBatchLocked(std::vector<std::unique_ptr<Pending>>* batch)
      HAMMING_REQUIRES(mu_);
  /// Executes one gathered batch outside the lock and fulfills its
  /// promises. `worker_id` labels the trace lane.
  void ExecuteBatch(std::vector<std::unique_ptr<Pending>> batch,
                    uint32_t worker_id);
  /// Completes one request with a terminal status (no index call).
  void FailPending(std::unique_ptr<Pending> p, Status status,
                   std::size_t batch_size);
  /// Assembles one request's span stack and offers it to the configured
  /// trace (head-sampled or slow only) and query log (every request).
  /// No-op unless a sampler is configured.
  void RecordRequestTelemetry(const Pending& p, char kind, uint64_t param,
                              bool ok, const obs::QueryStats& stats,
                              std::size_t batch_size, uint32_t worker_id,
                              const RequestTiming& t,
                              const std::vector<obs::RequestSpan>& pin_spans);

  const std::vector<const HammingIndex*> indexes_;
  const QueryEngineOptions opts_;
  Metrics metrics_;

  mutable Mutex mu_;
  CondVar queue_cv_;
  std::deque<std::unique_ptr<Pending>> queue_ HAMMING_GUARDED_BY(mu_);
  bool started_ HAMMING_GUARDED_BY(mu_) = false;
  bool stopping_ HAMMING_GUARDED_BY(mu_) = false;
  double ewma_queue_wait_us_ HAMMING_GUARDED_BY(mu_) = 0.0;
  ServingCounters counters_ HAMMING_GUARDED_BY(mu_);
  std::vector<Thread> workers_;  // mutated only by Start/Shutdown
};

}  // namespace hamming::serving
