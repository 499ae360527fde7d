// Serving-layer QPS/latency study: batched vs unbatched query engines
// over the same shared index, closed- and open-loop.
//
// Closed loop (fixed concurrency, clients submit back-to-back) measures
// the throughput ceiling at a batch-friendly operating point: many
// concurrent clients over a modest index, where coalescing in-flight
// queries into one multi-query kernel call amortizes both the engine's
// per-request overhead (lock, wake, promise) and the per-query streaming
// of the stored codes. The headline acceptance number — batched >= 2x
// unbatched QPS — comes from this section.
//
// Open loop (scheduled arrivals at an offered QPS, latency measured from
// the *scheduled* arrival so queueing cannot hide behind dispatcher lag)
// sweeps a ladder of offered rates and reports, per engine config, the
// max sustainable QPS: the highest offered rate the engine absorbed with
// >= 95% of requests completed and achieved throughput within 90% of
// offered. Past that point an open-loop system shows its overload
// honestly: rejections and runaway p999.
//
// Churn mode: the same engine serving a ConcurrentHAIndex while worker
// threads mix inserts/deletes (applied directly to the index, which
// serializes them) with queries at configurable ratios — the
// reads-during-writes operating point of the epoch/snapshot layer.
// Ratios/threads via --churn-insert= --churn-delete= --churn-threads=
// --churn-ops=; rows land in the "churn" section with mutation rate and
// epoch-motion columns next to the query QPS/latency.
//
// Telemetry study: the batched closed-loop run repeated with the full
// live-telemetry stack (trace sampler at the default 1-in-64, query log,
// windowed time series) against an identical run with it off — the
// overhead A/B behind the "<= 3% at default sampling" acceptance bound.
// The telemetry stack then stays live through churn mode, and the run
// leaves three artifacts next to the JSON report: <out>_trace.json
// (Perfetto timeline with per-request spans), <out>_timeseries.jsonl
// (windowed rates/percentiles), <out>_querylog.jsonl (sampled
// exemplars) — the inputs of tools/telemetry_report.
//
// Output: human-readable tables + BENCH_serving.json with p50/p99/p999
// per row, a "max_sustainable" section, a "telemetry" A/B section, and
// "slow_query" exemplar rows. --smoke shrinks everything to a CI-sized
// run (scripts/check.sh validates the JSON artifact).
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "index/concurrent_ha_index.h"
#include "index/linear_scan.h"
#include "observability/query_log.h"
#include "observability/request_trace.h"
#include "observability/time_series.h"
#include "observability/trace.h"
#include "serving/load_gen.h"
#include "serving/query_engine.h"

namespace hamming {
namespace {

using bench::BenchReport;
using serving::ChurnOptions;
using serving::ChurnReport;
using serving::LoadReport;
using serving::QueryEngine;
using serving::QueryEngineOptions;
using serving::RunChurn;
using serving::RunClosedLoop;
using serving::RunOpenLoop;
using serving::WorkloadOptions;

std::vector<BinaryCode> MakeCodes(std::size_t n, std::size_t bits) {
  Rng rng(42);
  std::vector<BinaryCode> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    BinaryCode code(bits);
    for (std::size_t b = 0; b < bits; ++b) {
      code.SetBit(b, rng.Bernoulli(0.5));
    }
    out.push_back(code);
  }
  return out;
}

struct EngineConfig {
  const char* name;
  std::size_t max_batch;
};

void AddLatencyFields(BenchReport::Row& row, const LoadReport& r) {
  row.Num("attempted", static_cast<double>(r.attempted))
      .Num("completed", static_cast<double>(r.completed))
      .Num("rejected", static_cast<double>(r.rejected))
      .Num("failed", static_cast<double>(r.failed))
      .Num("qps", r.achieved_qps)
      .Num("p50_us", r.latency.p50_us)
      .Num("p99_us", r.latency.p99_us)
      .Num("p999_us", r.latency.p999_us)
      .Num("max_us", r.latency.max_us);
}

}  // namespace
}  // namespace hamming

int main(int argc, char** argv) {
  using namespace hamming;
  bool smoke = false;
  std::string out_path;
  double churn_insert = 0.2, churn_delete = 0.1;
  std::size_t churn_threads = 4, churn_ops = 0;  // 0 = pick by scale
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--churn-insert=", 15) == 0) {
      churn_insert = std::atof(argv[i] + 15);
    }
    if (std::strncmp(argv[i], "--churn-delete=", 15) == 0) {
      churn_delete = std::atof(argv[i] + 15);
    }
    if (std::strncmp(argv[i], "--churn-threads=", 16) == 0) {
      churn_threads = static_cast<std::size_t>(std::atol(argv[i] + 16));
    }
    if (std::strncmp(argv[i], "--churn-ops=", 12) == 0) {
      churn_ops = static_cast<std::size_t>(std::atol(argv[i] + 12));
    }
  }
  auto args = bench::BenchArgs::Parse(argc, argv);

  // Batch-friendly operating point: a 64-bit store big enough to spill
  // out of L2, so a single-query scan is memory-bound streaming while the
  // SIMD popcount compute is much cheaper than the loads. Coalescing B
  // in-flight queries into one MultiWithinDistance call streams the store
  // once instead of B times, which is where the batched engine earns its
  // throughput multiple. High client concurrency keeps a backlog queued
  // so batches actually form.
  const std::size_t n = smoke ? 32768 : args.Scaled(std::size_t{1} << 20);
  const std::size_t bits = 64;
  const std::size_t clients = smoke ? 32 : 64;
  const std::size_t per_client = smoke ? 40 : 100;
  auto codes = MakeCodes(n, bits);
  LinearScanIndex index;
  if (!index.Build(codes).ok()) return 1;

  // h = 9 on 64-bit codes keeps the scan selective (virtually no matches
  // on random codes) while steering ChooseLayout to the horizontal
  // lanes (h*8 > bits), whose tile-major multi-query kernel the batcher
  // coalesces into. The radius dates from when the plane scan gave each
  // query its own pass; smaller radii now share one block-major plane
  // pass per batch as well, and h stays 9 so runs stay comparable with
  // the committed BENCH_serving.json.
  WorkloadOptions workload;
  workload.h = 9;

  // Under closed-loop backlog the batched engine's batches form from the
  // requests that queue while the previous batch runs.
  const EngineConfig configs[] = {
      {"unbatched", 1},
      {"batched", 64},
  };

  obs::MetricsRegistry metrics;
  BenchReport report("serving", args.scale);

  std::printf("Closed loop: %zu clients x %zu queries, n=%zu codes, h=%zu\n",
              clients, per_client, n, workload.h);
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "config", "qps", "p50_us",
              "p99_us", "p999_us", "batch_avg");
  std::printf("%s\n", bench::Separator());
  double closed_qps[2] = {0.0, 0.0};
  for (std::size_t ci = 0; ci < 2; ++ci) {
    const EngineConfig& cfg = configs[ci];
    QueryEngineOptions opts;
    opts.num_workers = 2;
    opts.queue_capacity = 8192;
    opts.max_batch = cfg.max_batch;
    opts.metrics = ci == 1 ? &metrics : nullptr;  // serving.* for batched
    QueryEngine engine(&index, opts);
    if (!engine.Start().ok()) return 1;
    LoadReport r = RunClosedLoop(&engine, codes, workload, clients,
                                 per_client);
    engine.Shutdown();
    auto counters = engine.counters();
    const double batch_avg =
        counters.batches > 0
            ? static_cast<double>(counters.batched_queries) /
                  static_cast<double>(counters.batches)
            : 0.0;
    closed_qps[ci] = r.achieved_qps;
    std::printf("%-10s %10.0f %10.1f %10.1f %10.1f %10.2f\n", cfg.name,
                r.achieved_qps, r.latency.p50_us, r.latency.p99_us,
                r.latency.p999_us, batch_avg);
    auto& row = report.AddRow();
    row.Str("section", "closed_loop").Str("config", cfg.name);
    AddLatencyFields(row, r);
    row.Num("batch_avg", batch_avg);
  }
  if (closed_qps[1] > 0.0 && closed_qps[0] > 0.0) {
    std::printf("batched/unbatched QPS: %.2fx\n",
                closed_qps[1] / closed_qps[0]);
    report.AddRow()
        .Str("section", "summary")
        .Str("config", "closed_loop_speedup")
        .Num("batched_over_unbatched", closed_qps[1] / closed_qps[0]);
  }

  // Open-loop ladder: offered rates stepping up from half of each
  // config's own closed-loop ceiling; sustainable = >=95% completed and
  // achieved >= 90% of offered.
  std::printf("\nOpen loop ladder (%s)\n", smoke ? "smoke" : "full");
  std::printf("%-10s %12s %10s %10s %10s %10s\n", "config", "offered_qps",
              "qps", "p50_us", "p99_us", "p999_us");
  std::printf("%s\n", bench::Separator());
  const auto step_ms = std::chrono::milliseconds(smoke ? 150 : 500);
  for (std::size_t ci = 0; ci < 2; ++ci) {
    const EngineConfig& cfg = configs[ci];
    double base = closed_qps[ci] > 0 ? closed_qps[ci] : 1000.0;
    double max_sustainable = 0.0;
    for (double frac : {0.5, 0.75, 0.9, 1.1}) {
      const double offered = base * frac;
      QueryEngineOptions opts;
      opts.num_workers = 2;
      opts.queue_capacity = 8192;
      opts.max_batch = cfg.max_batch;
      QueryEngine engine(&index, opts);
      if (!engine.Start().ok()) return 1;
      LoadReport r = RunOpenLoop(&engine, codes, workload, offered, step_ms);
      engine.Shutdown();
      const bool sustained =
          r.attempted > 0 &&
          static_cast<double>(r.completed) >=
              0.95 * static_cast<double>(r.attempted) &&
          r.achieved_qps >= 0.9 * offered;
      if (sustained && offered > max_sustainable) max_sustainable = offered;
      std::printf("%-10s %12.0f %10.0f %10.1f %10.1f %10.1f%s\n", cfg.name,
                  offered, r.achieved_qps, r.latency.p50_us, r.latency.p99_us,
                  r.latency.p999_us, sustained ? "" : "  (overload)");
      auto& row = report.AddRow();
      row.Str("section", "open_loop")
          .Str("config", cfg.name)
          .Num("offered_qps", offered);
      AddLatencyFields(row, r);
      row.Num("sustained", sustained ? 1.0 : 0.0);
    }
    std::printf("%-10s max sustainable: %.0f qps\n", cfg.name,
                max_sustainable);
    report.AddRow()
        .Str("section", "max_sustainable")
        .Str("config", cfg.name)
        .Num("max_sustainable_qps", max_sustainable);
  }

  // Telemetry A/B: the batched closed-loop point, once with the whole
  // live-telemetry stack off and once with it on at default sampling.
  // Back-to-back runs on the same index isolate the telemetry delta
  // from run-to-run drift better than reusing the earlier closed-loop
  // number would.
  obs::TraceSamplerOptions sampler_opts;  // default 1-in-64 head sampling
  sampler_opts.slow_threshold = std::chrono::milliseconds(smoke ? 5 : 25);
  obs::TraceSampler sampler(sampler_opts);
  obs::TraceCollector trace;
  obs::QueryLog query_log;
  std::string artifact_prefix;
  obs::TimeSeriesOptions ts_opts;
  ts_opts.interval = std::chrono::milliseconds(smoke ? 25 : 250);
  if (!out_path.empty()) {
    artifact_prefix = out_path;
    const auto dot = artifact_prefix.rfind(".json");
    if (dot != std::string::npos) artifact_prefix.resize(dot);
    ts_opts.export_path = artifact_prefix + "_timeseries.jsonl";
  }
  obs::TimeSeriesCollector time_series(&metrics, ts_opts);
  if (Status st = time_series.Start(); !st.ok()) {
    std::fprintf(stderr, "time-series exporter failed to start: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  std::printf("\nTelemetry overhead (closed loop, batched, default "
              "1-in-%u sampling)\n", sampler.options().sample_every);
  std::printf("%-14s %10s %10s %10s %10s\n", "config", "qps", "p50_us",
              "p99_us", "p999_us");
  std::printf("%s\n", bench::Separator());
  double telemetry_qps[2] = {0.0, 0.0};
  for (int telemetry_on = 0; telemetry_on <= 1; ++telemetry_on) {
    QueryEngineOptions opts;
    opts.num_workers = 2;
    opts.queue_capacity = 8192;
    opts.max_batch = 64;
    opts.metrics = &metrics;  // both runs: isolate the *telemetry* cost
    if (telemetry_on != 0) {
      opts.sampler = &sampler;
      opts.trace = &trace;
      opts.query_log = &query_log;
    }
    QueryEngine engine(&index, opts);
    if (!engine.Start().ok()) return 1;
    LoadReport r = RunClosedLoop(&engine, codes, workload, clients,
                                 per_client);
    engine.Shutdown();
    telemetry_qps[telemetry_on] = r.achieved_qps;
    const char* name = telemetry_on != 0 ? "telemetry_on" : "telemetry_off";
    std::printf("%-14s %10.0f %10.1f %10.1f %10.1f\n", name, r.achieved_qps,
                r.latency.p50_us, r.latency.p99_us, r.latency.p999_us);
    auto& row = report.AddRow();
    row.Str("section", "telemetry").Str("config", name);
    AddLatencyFields(row, r);
  }
  if (telemetry_qps[0] > 0.0) {
    const double overhead_pct =
        (telemetry_qps[0] - telemetry_qps[1]) / telemetry_qps[0] * 100.0;
    std::printf("telemetry overhead: %.2f%%\n", overhead_pct);
    report.AddRow()
        .Str("section", "summary")
        .Str("config", "telemetry_overhead")
        .Num("overhead_pct", overhead_pct);
  }

  // Churn mode: queries race a live insert/delete stream over the
  // epoch/snapshot index. Mutations bypass the engine (the index
  // serializes its own writers); queries go through it like any client.
  // The telemetry stack stays attached, so the artifacts cover the
  // reads-during-writes phase too.
  {
    const std::size_t churn_n =
        smoke ? 8192 : args.Scaled(std::size_t{1} << 16);
    if (churn_ops == 0) churn_ops = smoke ? 400 : args.Scaled(4000);
    auto churn_codes = MakeCodes(churn_n, bits);
    ConcurrentHAIndexOptions iopts;
    iopts.metrics = &metrics;  // index.epoch_* land in the JSON snapshot
    ConcurrentHAIndex cha(iopts);
    if (!cha.Build(churn_codes).ok()) return 1;

    QueryEngineOptions eopts;
    eopts.num_workers = 2;
    eopts.queue_capacity = 8192;
    eopts.max_batch = 64;
    eopts.metrics = &metrics;
    eopts.sampler = &sampler;
    eopts.trace = &trace;
    eopts.query_log = &query_log;
    QueryEngine engine(&cha, eopts);
    if (!engine.Start().ok()) return 1;

    ChurnOptions copts;
    copts.insert_fraction = churn_insert;
    copts.delete_fraction = churn_delete;
    copts.threads = churn_threads;
    copts.ops_per_thread = churn_ops;
    copts.workload = workload;
    ChurnReport r = RunChurn(&engine, &cha, churn_codes, copts);
    engine.Shutdown();

    std::printf("\nChurn: %zu threads x %zu ops (insert %.0f%% / delete "
                "%.0f%% / query %.0f%%), n=%zu codes\n",
                copts.threads, copts.ops_per_thread,
                100 * copts.insert_fraction, 100 * copts.delete_fraction,
                100 * (1 - copts.insert_fraction - copts.delete_fraction),
                churn_n);
    std::printf("%-10s %12s %10s %10s %10s %12s %8s\n", "config", "mut/s",
                "qps", "p50_us", "p99_us", "p999_us", "epochs");
    std::printf("%s\n", bench::Separator());
    std::printf("%-10s %12.0f %10.0f %10.1f %10.1f %12.1f %8llu\n", "churn",
                r.mutations_per_second, r.query_qps, r.latency.p50_us,
                r.latency.p99_us, r.latency.p999_us,
                static_cast<unsigned long long>(r.epochs_published));
    report.AddRow()
        .Str("section", "churn")
        .Str("config", "batched")
        .Num("threads", static_cast<double>(copts.threads))
        .Num("insert_fraction", copts.insert_fraction)
        .Num("delete_fraction", copts.delete_fraction)
        .Num("inserts", static_cast<double>(r.inserts))
        .Num("deletes", static_cast<double>(r.deletes))
        .Num("mutations_per_sec", r.mutations_per_second)
        .Num("epochs_published", static_cast<double>(r.epochs_published))
        .Num("rebuilds", static_cast<double>(r.rebuilds))
        .Num("attempted", static_cast<double>(r.query_attempted))
        .Num("completed", static_cast<double>(r.query_completed))
        .Num("rejected", static_cast<double>(r.query_rejected))
        .Num("failed", static_cast<double>(r.query_failed))
        .Num("qps", r.query_qps)
        .Num("p50_us", r.latency.p50_us)
        .Num("p99_us", r.latency.p99_us)
        .Num("p999_us", r.latency.p999_us)
        .Num("max_us", r.latency.max_us);
  }

  // Wind down the telemetry stack: one final window, then the drain in
  // Stop() flushes the JSONL. The slowest recorded queries (tail set
  // first, reservoir as fallback so the section is never empty) become
  // exemplar rows with their latency decomposition.
  time_series.CloseWindowNow();
  time_series.Stop();
  std::vector<obs::QueryLogEntry> exemplars = query_log.SlowSnapshot();
  {
    std::vector<obs::QueryLogEntry> reservoir = query_log.ReservoirSnapshot();
    std::sort(reservoir.begin(), reservoir.end(),
              [](const obs::QueryLogEntry& a, const obs::QueryLogEntry& b) {
                return a.e2e_us > b.e2e_us;
              });
    exemplars.insert(exemplars.end(), reservoir.begin(), reservoir.end());
  }
  std::printf("\nSlowest recorded queries (query log)\n");
  std::printf("%10s %6s %10s %10s %10s %6s\n", "trace_id", "kind", "e2e_us",
              "queue_us", "svc_us", "batch");
  std::printf("%s\n", bench::Separator());
  const std::size_t top = std::min<std::size_t>(5, exemplars.size());
  for (std::size_t i = 0; i < top; ++i) {
    const obs::QueryLogEntry& e = exemplars[i];
    std::printf("%10llu %6c %10.1f %10.1f %10.1f %6llu\n",
                static_cast<unsigned long long>(e.trace_id), e.kind, e.e2e_us,
                e.queue_us, e.service_us,
                static_cast<unsigned long long>(e.batch_size));
    report.AddRow()
        .Str("section", "slow_query")
        .Str("kind", e.kind == 'k' ? "knn" : "range")
        .Num("trace_id", static_cast<double>(e.trace_id))
        .Num("slow", e.slow ? 1.0 : 0.0)
        .Num("e2e_us", e.e2e_us)
        .Num("queue_us", e.queue_us)
        .Num("service_us", e.service_us)
        .Num("batch_size", static_cast<double>(e.batch_size));
  }
  report.AddRow()
      .Str("section", "telemetry_totals")
      .Num("queries_logged", static_cast<double>(query_log.recorded()))
      .Num("slow_seen", static_cast<double>(query_log.slow_seen()))
      .Num("windows_closed", static_cast<double>(time_series.windows_closed()))
      .Num("trace_events", static_cast<double>(trace.size()));
  if (!artifact_prefix.empty()) {
    if (!trace.WriteChromeJson(artifact_prefix + "_trace.json")) return 1;
    if (!query_log.ExportJsonl(artifact_prefix + "_querylog.jsonl")) return 1;
    std::printf("\nartifacts: %s_trace.json, %s_timeseries.jsonl, "
                "%s_querylog.jsonl\n", artifact_prefix.c_str(),
                artifact_prefix.c_str(), artifact_prefix.c_str());
  }

  return report.Write(&metrics, out_path) ? 0 : 1;
}
