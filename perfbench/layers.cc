#include "layers.h"

#include <algorithm>

namespace perfbench {

using hamming::HammingIndex;
using hamming::QueryRequest;
using hamming::QueryResponse;

namespace {

constexpr std::size_t kProbeQueries = 256;

// Median microseconds per query of `calls` calls of `batch` requests
// each: SearchBatch at radius h, or KnnBatch for k neighbours when k > 0.
// Stats of every response are summed into *stats.
double ProbeUs(const HammingIndex& index, const std::vector<uint64_t>& queries,
               std::size_t bits, std::size_t h, std::size_t k,
               std::size_t batch, std::size_t calls, const char* span,
               Tracer* tracer, hamming::obs::QueryStats* stats) {
  std::vector<double> per_query_us;
  std::vector<QueryRequest> reqs(batch);
  std::vector<QueryResponse> resps(batch);
  for (std::size_t c = 0; c < calls; ++c) {
    for (std::size_t b = 0; b < batch; ++b) {
      const auto code = ToCode(queries[(c * batch + b) % queries.size()], bits);
      reqs[b] = k == 0 ? QueryRequest::Range(code, h)
                       : QueryRequest::Knn(code, k);
      resps[b].Clear();
    }
    const auto start = Clock::now();
    const auto st = k == 0 ? index.SearchBatch(reqs, resps)
                           : index.KnnBatch(reqs, resps);
    const auto end = Clock::now();
    tracer->Add(span, start, end, 0, 4);
    if (!st.ok()) continue;
    per_query_us.push_back(1e3 * Millis(end - start) /
                           static_cast<double>(batch));
    for (const QueryResponse& r : resps) *stats += r.stats;
  }
  return Median(per_query_us);
}

}  // namespace

void KernelProbes(const HammingIndex& scan, std::size_t n,
                  const std::vector<uint64_t>& queries, std::size_t bits,
                  Tracer* tracer, Outcome* out) {
  hamming::obs::QueryStats h3;
  hamming::obs::QueryStats other;
  out->Set("kernels.h3_us",
           ProbeUs(scan, queries, bits, 3, 0, 1, kProbeQueries,
                   "kernels.scan_h3", tracer, &h3),
           "us");
  out->Set("kernels.h9_us",
           ProbeUs(scan, queries, bits, 9, 0, 1, kProbeQueries,
                   "kernels.scan_h9", tracer, &other),
           "us");
  out->Set("kernels.h9_b32_us",
           ProbeUs(scan, queries, bits, 9, 0, 32, kProbeQueries / 16,
                   "kernels.scan_h9_b32", tracer, &other),
           "us");
  // Bit-sliced layout: one plane row per code bit per 512-code block.
  const double blocks =
      static_cast<double>((n + 511) / 512) * static_cast<double>(kProbeQueries);
  out->Set("kernels.planes_frac",
           static_cast<double>(h3.planes_scanned) /
               (blocks * static_cast<double>(bits)),
           "1");
  out->Set("kernels.pruned_frac",
           static_cast<double>(h3.blocks_pruned) / blocks, "1");
}

void IndexReadProbes(const HammingIndex& ha, const HammingIndex& scan,
                     const std::vector<uint64_t>& queries, std::size_t bits,
                     Tracer* tracer, Outcome* out) {
  hamming::obs::QueryStats range;
  hamming::obs::QueryStats knn;
  hamming::obs::QueryStats ignored;
  const double search_us = ProbeUs(ha, queries, bits, 3, 0, 1, kProbeQueries,
                                   "index.search_h3", tracer, &range);
  const double knn_us = ProbeUs(ha, queries, bits, 0, 10, 1, kProbeQueries,
                                "index.knn_k10", tracer, &knn);
  const double scan_us = ProbeUs(scan, queries, bits, 3, 0, 1, kProbeQueries,
                                 "index.scan_h3", tracer, &ignored);
  const auto q = static_cast<double>(kProbeQueries);
  out->Set("index.search_us", search_us, "us");
  out->Set("index.knn_us", knn_us, "us");
  out->Set("index.scan_ratio", scan_us > 0 ? search_us / scan_us : 0.0, "1");
  out->Set("index.sigs_per_query",
           static_cast<double>(range.signatures_enumerated) / q, "count");
  out->Set("index.hit_ratio",
           range.candidates_generated == 0
               ? 0.0
               : static_cast<double>(range.results) /
                     static_cast<double>(range.candidates_generated),
           "1");
  out->Set("index.knn_rescan_per_query",
           static_cast<double>(knn.rescanned_results) / q, "count");
}

void LatencyDiagnostics(const Window& w, Outcome* out) {
  out->Diag("p50_ms", Quantile(w.latency_ms, 0.5), "ms");
  out->Diag("p90_ms", Quantile(w.latency_ms, 0.9), "ms");
  out->Diag("p99_ms", Quantile(w.latency_ms, 0.99), "ms");
  out->Diag("p999_ms", Quantile(w.latency_ms, 0.999), "ms");
  out->Diag("max_ms", Quantile(w.latency_ms, 1.0), "ms");
  out->Diag("latency_samples", static_cast<double>(w.latency_ms.size()),
            "count");
}

void ServingMetrics(const Window& w, const Capacity& cap, Outcome* out) {
  out->Set("serving.queue_p50_ms", Quantile(w.queue_ms, 0.5), "ms");
  out->Set("serving.queue_p90_ms", Quantile(w.queue_ms, 0.9), "ms");
  out->Set("serving.service_p50_ms", Quantile(w.service_ms, 0.5), "ms");
  out->Set("serving.batch_mean", w.batch_mean, "count");
  out->Set("serving.batch_mean_cap", cap.batch_mean, "count");
  out->Set("serving.slo_capacity_per_s", cap.qps, "1/s");
  out->Set("serving.overhead_us", Quantile(w.overhead_us, 0.5), "us");
  out->Set("serving.e2e_p50_ms", Quantile(w.latency_ms, 0.5), "ms");
  out->Set("serving.e2e_p90_ms", Quantile(w.latency_ms, 0.9), "ms");
  out->Set("serving.e2e_p99_ms", Quantile(w.latency_ms, 0.99), "ms");
  out->Set("serving.e2e_p999_ms", Quantile(w.latency_ms, 0.999), "ms");
  out->Set("serving.samples", static_cast<double>(w.latency_ms.size()),
           "count");
}

double LateP99(const std::vector<const Window*>& windows) {
  std::vector<double> late;
  for (const Window* w : windows) {
    late.insert(late.end(), w->late_ms.begin(), w->late_ms.end());
  }
  return Quantile(std::move(late), 0.99);
}

}  // namespace perfbench
