#include "observability/query_stats.h"

#include "observability/json.h"
#include "observability/metric_names.h"

namespace hamming::obs {

std::string QueryStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("signatures_enumerated");
  w.Uint(signatures_enumerated);
  w.Key("candidates_generated");
  w.Uint(candidates_generated);
  w.Key("exact_distance_computations");
  w.Uint(exact_distance_computations);
  w.Key("kernel_batch_calls");
  w.Uint(kernel_batch_calls);
  w.Key("radius_expansions");
  w.Uint(radius_expansions);
  w.Key("rescanned_results");
  w.Uint(rescanned_results);
  w.Key("results");
  w.Uint(results);
  w.Key("planes_scanned");
  w.Uint(planes_scanned);
  w.Key("blocks_pruned");
  w.Uint(blocks_pruned);
  w.Key("blocks_skipped");
  w.Uint(blocks_skipped);
  w.Key("serving_queue_nanos");
  w.Uint(serving_queue_nanos);
  w.EndObject();
  return w.Release();
}

QueryStatsHistograms QueryStatsHistograms::Register(
    MetricsRegistry* registry, const std::string& prefix) {
  QueryStatsHistograms h;
  if (registry == nullptr) return h;
  h.signatures = registry->Histogram(prefix + ".signatures_enumerated");
  h.candidates = registry->Histogram(prefix + ".candidates");
  h.exact_distances = registry->Histogram(prefix + ".exact_distances");
  h.kernel_batches = registry->Histogram(prefix + ".kernel_batches");
  h.radius_expansions = registry->Histogram(prefix + ".radius_expansions");
  h.rescanned_results = registry->Histogram(prefix + ".rescanned_results");
  h.results = registry->Histogram(prefix + ".results");
  h.planes_scanned = registry->Histogram(metric_names::kKernelPlanesScanned);
  h.blocks_pruned = registry->Histogram(metric_names::kKernelBlocksPruned);
  h.blocks_skipped = registry->Histogram(metric_names::kKernelBlocksSkipped);
  h.serving_queue_nanos = registry->Histogram(prefix + ".serving_queue_nanos");
  return h;
}

void QueryStatsHistograms::Observe(MetricsRegistry* registry,
                                   const QueryStats& stats) const {
  if (registry == nullptr) return;
  HAMMING_METRIC_OBSERVE(registry, signatures, stats.signatures_enumerated);
  HAMMING_METRIC_OBSERVE(registry, candidates, stats.candidates_generated);
  HAMMING_METRIC_OBSERVE(registry, exact_distances,
                         stats.exact_distance_computations);
  HAMMING_METRIC_OBSERVE(registry, kernel_batches, stats.kernel_batch_calls);
  HAMMING_METRIC_OBSERVE(registry, radius_expansions,
                         stats.radius_expansions);
  HAMMING_METRIC_OBSERVE(registry, rescanned_results,
                         stats.rescanned_results);
  HAMMING_METRIC_OBSERVE(registry, results, stats.results);
  HAMMING_METRIC_OBSERVE(registry, planes_scanned, stats.planes_scanned);
  HAMMING_METRIC_OBSERVE(registry, blocks_pruned, stats.blocks_pruned);
  HAMMING_METRIC_OBSERVE(registry, blocks_skipped, stats.blocks_skipped);
  HAMMING_METRIC_OBSERVE(registry, serving_queue_nanos,
                         stats.serving_queue_nanos);
}

}  // namespace hamming::obs
