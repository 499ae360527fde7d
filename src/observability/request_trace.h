// Per-request spans for the online serving path.
//
// One served query crosses the engine as admit → queue → batch-form →
// epoch-pin → kernel → respond; this header carries that span stack as
// plain data (RequestSpan) plus the two pieces that make recording cheap
// enough for the hot path:
//
//  * TraceSampler — hands out process-unique trace ids and decides,
//    deterministically in (seed, id), whether a request is HEAD-sampled
//    (1-in-N at admission). Tail capture is the complement: requests
//    whose end-to-end latency exceeds `slow_threshold` are exported even
//    when the head coin said no, so the p999 stragglers the timeline
//    exists for are never missing from it. Determinism matters: replays
//    of the same request stream sample the same ids, which is what the
//    sampler tests pin.
//
//  * SpanSink + ScopedRequestSpan — a thread-local recording channel.
//    The engine installs a sink around the batched index call
//    (SpanSinkScope) and layers *below* serving (ConcurrentHAIndex's
//    epoch pin) record spans through it without any interface change or
//    layering edge: no sink installed = one thread-local load and no
//    other work. Timestamps are steady-clock nanos.
//
// Export goes through TraceCollector::AddProcessSpan into an auxiliary
// "serving" process (one thread lane per engine worker), alongside the
// MapReduce job timeline, and through QueryLog entries (span
// breakdowns ride with the sampled QueryStats exemplars).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace hamming::obs {

/// \brief Phases of one served request, in hot-path order.
enum class RequestPhase : uint8_t {
  kAdmit = 0,
  kQueue,
  kBatchForm,
  kEpochPin,
  kKernel,
  kRespond,
};

/// \brief Stable lowercase label of a phase ("admit", "queue", ...).
const char* RequestPhaseName(RequestPhase phase);

/// \brief One recorded phase interval (steady-clock nanos). `detail` is
/// a phase-defined payload (the pinned epoch number for kEpochPin).
struct RequestSpan {
  RequestPhase phase = RequestPhase::kAdmit;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t detail = 0;

  uint64_t DurationNs() const {
    return end_ns >= start_ns ? end_ns - start_ns : 0;
  }
};

struct TraceSamplerOptions {
  /// Head-sample 1 request in this many (deterministic in the trace
  /// id); <= 1 samples every request.
  uint32_t sample_every = 64;
  /// Seed of the sampling hash — fixed seed, fixed decisions.
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Requests slower than this end-to-end are captured even when not
  /// head-sampled (tail capture); zero disables.
  std::chrono::microseconds slow_threshold{0};
};

/// \brief Trace-id allocator + deterministic head-sampling decision +
/// the trace clock (micros since sampler construction, the timebase of
/// exported serving spans). Thread-safe; recording threads share it.
class TraceSampler {
 public:
  explicit TraceSampler(TraceSamplerOptions opts = {});

  /// \brief Next trace id (1-based, unique per sampler).
  uint64_t NextTraceId();

  /// \brief Whether `trace_id` is head-sampled — pure in (seed, id).
  bool HeadSampled(uint64_t trace_id) const;

  /// \brief Whether an end-to-end latency trips tail capture.
  bool Slow(std::chrono::nanoseconds e2e) const;

  /// \brief `tp` on the trace timeline (micros since construction).
  double ToTraceMicros(std::chrono::steady_clock::time_point tp) const;

  const TraceSamplerOptions& options() const { return opts_; }

 private:
  TraceSamplerOptions opts_;
  std::atomic<uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point base_;
};

/// \brief Collects the spans recorded on one thread during one batched
/// index call. Single-writer (the worker thread that installed it).
class SpanSink {
 public:
  void Record(RequestPhase phase, uint64_t start_ns, uint64_t end_ns,
              uint64_t detail) {
    spans_.push_back(RequestSpan{phase, start_ns, end_ns, detail});
  }
  void Clear() { spans_.clear(); }
  const std::vector<RequestSpan>& spans() const { return spans_; }

 private:
  std::vector<RequestSpan> spans_;
};

/// \brief The calling thread's current sink (null = not recording).
SpanSink* CurrentSpanSink();

/// \brief RAII installation of a SpanSink as the calling thread's
/// current sink; restores the previous sink on destruction.
class SpanSinkScope {
 public:
  explicit SpanSinkScope(SpanSink* sink);
  ~SpanSinkScope();
  SpanSinkScope(const SpanSinkScope&) = delete;
  SpanSinkScope& operator=(const SpanSinkScope&) = delete;

 private:
  SpanSink* previous_;
};

/// \brief RAII span: stamps the start at construction and records into
/// the thread's current sink at destruction — a no-op (one thread-local
/// load, no clock read) when no sink is installed.
class ScopedRequestSpan {
 public:
  explicit ScopedRequestSpan(RequestPhase phase, uint64_t detail = 0);
  ~ScopedRequestSpan();
  ScopedRequestSpan(const ScopedRequestSpan&) = delete;
  ScopedRequestSpan& operator=(const ScopedRequestSpan&) = delete;

  /// \brief Sets the phase payload (e.g. the pinned epoch number).
  void SetDetail(uint64_t detail) { detail_ = detail; }

  /// \brief Records the span now (instead of at scope exit) — for
  /// phases that finish mid-scope, like an epoch pin that precedes the
  /// kernel call sharing its scope. Idempotent; disarms the destructor.
  void End();

 private:
  SpanSink* sink_;
  RequestPhase phase_;
  uint64_t detail_;
  uint64_t start_ns_ = 0;
};

/// \brief Steady-clock now in nanos (the RequestSpan timebase).
uint64_t RequestTraceNowNs();

}  // namespace hamming::obs
