// Sampled query log: what the queries of a serving run did, per query.
//
// A QueryEngine given a log records each request's QueryStats — candidate
// counts, kernel work, queueing delay — with its outcome and latency, so
// a latency post-mortem can see why the slow queries were slow.
// bench_serving prints the slowest as its slow_query exemplar rows and
// exports the log beside its report for tools/telemetry_report. The log
// keeps a bounded, statistically honest record of the run:
//
//  * a seeded reservoir (algorithm R) of NORMAL queries, so the corpus
//    stays a uniform sample of the whole stream no matter how long the
//    run, at fixed memory;
//  * the top-K SLOWEST queries kept separately and exhaustively up to
//    capacity — the tail exemplars a latency post-mortem (and a cost
//    model that must not under-predict the tail) actually wants. Every
//    slow query is considered; when the set is full the fastest of the
//    kept slow queries is evicted, so the K worst always survive.
//
// Entries carry the trace id, so a slow exemplar in the JSONL can be
// joined against its span breakdown in the Perfetto timeline. Export is
// one JSON object per line (JSONL): streaming-friendly for
// tools/telemetry_report.
//
// Thread-safe: Record() is called by every engine worker; a single
// mutex is fine because recording happens once per request, not per
// code probe.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "observability/query_stats.h"
#include "observability/request_trace.h"

namespace hamming::obs {

/// \brief One sampled query: identity, outcome, latency breakdown,
/// work profile, span stack.
struct QueryLogEntry {
  uint64_t trace_id = 0;
  bool head_sampled = false;
  bool slow = false;  // exceeded the sampler's slow threshold
  bool ok = true;     // final status was OK
  /// 'r' = range query, 'k' = kNN (kept as a char so this layer stays
  /// below index/query.h in the layering DAG).
  char kind = 'r';
  /// Radius h for range queries, k for kNN.
  uint64_t param = 0;
  /// Seconds since the log was created (relative, steady clock).
  double t_s = 0.0;
  double e2e_us = 0.0;
  double queue_us = 0.0;
  double service_us = 0.0;
  uint64_t batch_size = 0;
  QueryStats stats;
  std::vector<RequestSpan> spans;

  /// \brief The entry as one JSON object (one JSONL line, no newline).
  std::string ToJson() const;
};

struct QueryLogOptions {
  /// Reservoir capacity for normal (non-slow) queries.
  std::size_t reservoir_capacity = 256;
  /// How many slowest queries are retained.
  std::size_t slow_capacity = 64;
  /// Reservoir RNG seed — fixed seed, fixed sample, the determinism
  /// the reservoir tests rely on.
  uint64_t seed = 42;
};

/// \brief Bounded exemplar log: uniform reservoir of normal queries +
/// the slowest queries kept exhaustively up to capacity.
class QueryLog {
 public:
  explicit QueryLog(QueryLogOptions opts = {});

  /// \brief Records one completed query. `entry.slow` routes it: slow
  /// entries compete for the slow set, others for the reservoir.
  /// `entry.t_s` is overwritten with the log-relative arrival time.
  void Record(QueryLogEntry entry) HAMMING_EXCLUDES(mu_);

  /// \brief Uniform sample of normal queries (insertion order).
  std::vector<QueryLogEntry> ReservoirSnapshot() const
      HAMMING_EXCLUDES(mu_);

  /// \brief Retained slow queries, slowest first.
  std::vector<QueryLogEntry> SlowSnapshot() const HAMMING_EXCLUDES(mu_);

  /// \brief Total queries offered to Record().
  uint64_t recorded() const HAMMING_EXCLUDES(mu_);
  /// \brief How many of those were slow.
  uint64_t slow_seen() const HAMMING_EXCLUDES(mu_);

  /// \brief Every retained entry (slow set first, then reservoir) as
  /// JSONL.
  std::string ToJsonl() const HAMMING_EXCLUDES(mu_);

  /// \brief Writes ToJsonl() to `path`; false on I/O failure.
  bool ExportJsonl(const std::string& path) const;

 private:
  const QueryLogOptions opts_;
  const std::chrono::steady_clock::time_point base_;
  mutable Mutex mu_;
  std::vector<QueryLogEntry> reservoir_ HAMMING_GUARDED_BY(mu_);
  std::vector<QueryLogEntry> slow_ HAMMING_GUARDED_BY(mu_);
  uint64_t normal_seen_ HAMMING_GUARDED_BY(mu_) = 0;
  uint64_t slow_seen_ HAMMING_GUARDED_BY(mu_) = 0;
  uint64_t rng_state_ HAMMING_GUARDED_BY(mu_);
};

}  // namespace hamming::obs
