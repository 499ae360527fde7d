// Per-layer probes and metric groups shared by the workloads. Each probe
// calls one layer directly from the benchmark, outside the serving
// engine, and records a span around every call when tracing is on.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.h"
#include "index/hamming_index.h"

namespace perfbench {

/// kernels.*: LinearScanIndex::SearchBatch at batch 1 (h = 3 and h = 9)
/// and at batch 32 (h = 9), plus the vertical kernel's plane and block
/// pruning shares on the h = 3 queries. `scan` holds `n` codes.
void KernelProbes(const hamming::HammingIndex& scan, std::size_t n,
                  const std::vector<uint64_t>& queries, std::size_t bits,
                  Tracer* tracer, Outcome* out);

/// index.* reads: HA-Index range (h = 3) and kNN (k = 10) at batch 1,
/// its work counters, and its time over LinearScanIndex's on the same
/// codes and queries.
void IndexReadProbes(const hamming::HammingIndex& ha,
                     const hamming::HammingIndex& scan,
                     const std::vector<uint64_t>& queries, std::size_t bits,
                     Tracer* tracer, Outcome* out);

/// Diagnostics of a fixed-rate window: latency percentiles from the
/// scheduled arrival and the sample count. They are not gated: see
/// README.md for how far they move between runs on a shared VM.
void LatencyDiagnostics(const Window& w, Outcome* out);

/// serving.*: queue wait, service time, batch size (at the fixed rate
/// and at SLO capacity), the SLO capacity itself, engine overhead and the
/// e2e tail of a window.
void ServingMetrics(const Window& w, const Capacity& cap, Outcome* out);

/// gen.late_p99_ms over every arrival of the given windows.
double LateP99(const std::vector<const Window*>& windows);

}  // namespace perfbench
