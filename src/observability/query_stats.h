// Per-query search statistics — the quantities the paper's relative
// claims (and the multi-index-hashing analyses in PAPERS.md) are built
// on, recorded by every HammingIndex::SearchBatch/KnnBatch into each
// request's QueryResponse::stats.
//
// Field semantics across the index families:
//  * signatures_enumerated — hash keys / segment signatures / shared
//    tree-node patterns the index evaluated for this query: MH table
//    probes, HmSearch segment probes, HA-Index node partial distances.
//  * candidates_generated — tuples surfaced by the filtering structure
//    before (or without) exact verification: hash-bucket members,
//    HA-Index rows reaching the path walk, linear-scan rows.
//  * exact_distance_computations — full-width XOR+popcount distance (or
//    bounded WithinDistance) evaluations against stored codes.
//  * kernel_batch_calls — calls into the batched kernels
//    (kernels/hamming_kernels.h); candidates / batches is the average
//    batch occupancy, the quantity that decides whether the SIMD path
//    pays off.
//  * radius_expansions — range-query rounds issued by the
//    radius-expanding default KnnBatch.
//  * rescanned_results — tuples re-surfaced by a later expansion round
//    that an earlier round had already returned: the pure re-scan waste
//    of radius-expanding kNN. The geometric (distance-guided) expansion
//    exists to drive this number down; the h += 1 walk pays it once per
//    extra round.
//  * results — qualifying tuples returned.
//  * serving_queue_nanos — time the request spent waiting in the serving
//    layer's admission queue before its batch reached the index (zero
//    for queries issued outside src/serving/). The serving engine stamps
//    it so per-query work profiles and queueing delay travel together.
//  * planes_scanned / blocks_pruned / blocks_skipped — vertical
//    (bit-sliced) kernel counters: plane rows actually read, 512-code
//    blocks abandoned early, and the subset of those the blocks'
//    common-bit summaries ruled out before any plane row was read. Zero
//    whenever the query ran on the horizontal layout; the pruned/scanned
//    ratio is the layout's win on this query, the skipped share the part
//    of it the store's order bought.
//
// QueryStats is a plain accumulator with no synchronization: one stats
// object belongs to one query (or one single-threaded batch). Aggregate
// across threads by recording each finished query into a
// MetricsRegistry through QueryStatsHistograms.
#pragma once

#include <cstdint>
#include <string>

#include "observability/metrics.h"

namespace hamming::obs {

struct QueryStats {
  uint64_t signatures_enumerated = 0;
  uint64_t candidates_generated = 0;
  uint64_t exact_distance_computations = 0;
  uint64_t kernel_batch_calls = 0;
  uint64_t radius_expansions = 0;
  uint64_t rescanned_results = 0;
  uint64_t results = 0;
  uint64_t planes_scanned = 0;
  uint64_t blocks_pruned = 0;
  uint64_t blocks_skipped = 0;
  uint64_t serving_queue_nanos = 0;

  QueryStats& operator+=(const QueryStats& o) {
    signatures_enumerated += o.signatures_enumerated;
    candidates_generated += o.candidates_generated;
    exact_distance_computations += o.exact_distance_computations;
    kernel_batch_calls += o.kernel_batch_calls;
    radius_expansions += o.radius_expansions;
    rescanned_results += o.rescanned_results;
    results += o.results;
    planes_scanned += o.planes_scanned;
    blocks_pruned += o.blocks_pruned;
    blocks_skipped += o.blocks_skipped;
    serving_queue_nanos += o.serving_queue_nanos;
    return *this;
  }

  bool operator==(const QueryStats& o) const {
    return signatures_enumerated == o.signatures_enumerated &&
           candidates_generated == o.candidates_generated &&
           exact_distance_computations == o.exact_distance_computations &&
           kernel_batch_calls == o.kernel_batch_calls &&
           radius_expansions == o.radius_expansions &&
           rescanned_results == o.rescanned_results && results == o.results &&
           planes_scanned == o.planes_scanned &&
           blocks_pruned == o.blocks_pruned &&
           blocks_skipped == o.blocks_skipped &&
           serving_queue_nanos == o.serving_queue_nanos;
  }

  /// \brief One JSON object with every field.
  std::string ToJson() const;
};

/// \brief Pre-registered per-query histograms ("query.candidates",
/// "query.exact_distances", ...) on a registry; Observe() records one
/// finished query's stats as one sample per histogram.
struct QueryStatsHistograms {
  MetricId signatures = kOverflowMetric;
  MetricId candidates = kOverflowMetric;
  MetricId exact_distances = kOverflowMetric;
  MetricId kernel_batches = kOverflowMetric;
  MetricId radius_expansions = kOverflowMetric;
  MetricId rescanned_results = kOverflowMetric;
  MetricId results = kOverflowMetric;
  MetricId planes_scanned = kOverflowMetric;
  MetricId blocks_pruned = kOverflowMetric;
  MetricId blocks_skipped = kOverflowMetric;
  MetricId serving_queue_nanos = kOverflowMetric;

  /// \brief Registers the histograms under `prefix` + ".candidates" etc.
  /// (default prefix "query"). The vertical-kernel counters always
  /// register under the fixed names "kernel.planes_scanned",
  /// "kernel.blocks_pruned" and "kernel.blocks_skipped" regardless of
  /// prefix, so every index family feeds one set of kernel histograms.
  /// Safe to call repeatedly.
  static QueryStatsHistograms Register(MetricsRegistry* registry,
                                       const std::string& prefix = "query");

  void Observe(MetricsRegistry* registry, const QueryStats& stats) const;
};

}  // namespace hamming::obs
