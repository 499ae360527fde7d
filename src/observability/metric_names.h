// Central declarations of every statically named metric in src/.
//
// The [metric-name] pass of the repository checker (tools/analyze)
// enforces that any string-literal registration — Counter("..."),
// Gauge("..."), Histogram("...") — anywhere under src/ uses a lowercase
// dotted identifier that is declared here. One file to grep means a
// typo'd near-duplicate ("serving.accepted" vs "serving.acepted") becomes
// a check failure instead of two silently diverging time series.
//
// Families built from a runtime prefix (epoch.h's "<prefix>.epoch_*",
// query_stats.cc's "<prefix>.candidates", job.cc's per-phase
// "time.<phase>_seconds") are exempt by construction: the pass only
// matches literal-only registrations. Document such families here in
// comments so the namespace stays surveyable.
#pragma once

namespace hamming::obs::metric_names {

// ---- diagnostics (src/observability/metrics.cc) ---------------------------
inline constexpr char kMetricsRegistrationOverflow[] =
    "metrics.registration_overflow";

// ---- process (src/observability/memtrack.cc) ------------------------------
inline constexpr char kProcessPeakRssBytes[] = "process.peak_rss_bytes";

// ---- mapreduce (src/mapreduce/job.cc) -------------------------------------
// Dynamic family, not declared: "time.<phase>_seconds" per-phase gauges.
inline constexpr char kMrReduceInputRecords[] = "mr.reduce_input_records";
inline constexpr char kMrReduceInputBytes[] = "mr.reduce_input_bytes";

// ---- serving (src/serving/query_engine.cc) --------------------------------
// Dynamic family, not declared: "serving.query.*" per-request work
// histograms (QueryStatsHistograms with prefix "serving.query").
inline constexpr char kServingQueueWaitUs[] = "serving.queue_wait_us";
inline constexpr char kServingServiceUs[] = "serving.service_us";
inline constexpr char kServingE2eUs[] = "serving.e2e_us";
inline constexpr char kServingBatchSize[] = "serving.batch_size";
inline constexpr char kServingAccepted[] = "serving.accepted";
inline constexpr char kServingRejectedQueueFull[] =
    "serving.rejected_queue_full";
inline constexpr char kServingRejectedLatency[] = "serving.rejected_latency";
inline constexpr char kServingDeadlineExpired[] = "serving.deadline_expired";
inline constexpr char kServingBatches[] = "serving.batches";
inline constexpr char kServingQueueDepthPeak[] = "serving.queue_depth_peak";

// ---- kernels (src/observability/query_stats.cc) ---------------------------
// Dynamic family, not declared: "<prefix>.candidates",
// "<prefix>.verified", "<prefix>.results", "<prefix>.kernel_nanos".
inline constexpr char kKernelPlanesScanned[] = "kernel.planes_scanned";
inline constexpr char kKernelBlocksPruned[] = "kernel.blocks_pruned";
inline constexpr char kKernelBlocksSkipped[] = "kernel.blocks_skipped";

// ---- index epochs (src/index/epoch.h) -------------------------------------
// Dynamic family, not declared: "<prefix>.epoch_published",
// "<prefix>.epoch_retired", "<prefix>.epoch_rebuilds",
// "<prefix>.epoch_live".

}  // namespace hamming::obs::metric_names
