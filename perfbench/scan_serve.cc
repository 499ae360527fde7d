// scan_serve: online near-duplicate and similar-item search over a flat
// scan. 75% of queries use h = 3 (the vertical plane-pruning kernel, one
// query at a time); 25% use h = 9 (the horizontal multi-query kernel the
// batcher coalesces). The HA-Index, the write path and MapReduce do no
// work here.
#include <memory>

#include "index/linear_scan.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using hamming::LinearScanIndex;
using hamming::QueryRequest;
using hamming::serving::QueryEngine;
using hamming::serving::ServeResult;

namespace {

struct ScanParams {
  std::size_t n;
  std::size_t centres;
  std::size_t pool;    // distinct queries, cycled
  double rate;         // fixed open-loop rate, q/s
  double ladder_start; // first capacity-ladder rate, q/s
  double window_s;     // capacity-ladder window
  uint64_t warmup;     // warm-up burst size
  uint64_t burst;      // throughput burst size
};

constexpr ScanParams kFull{1u << 20, 16384, 65536, 3000, 5000, 0.5, 2048,
                           4096};
constexpr ScanParams kSmoke{1u << 14, 256, 1024, 500, 1000, 0.2, 128, 256};
constexpr std::size_t kBits = 64;
constexpr uint64_t kCheckEvery = 16;

struct Check {
  uint64_t word;
  std::size_t h;
  std::vector<uint32_t> ids;
};

}  // namespace

Outcome RunScanServe(const Args& args) {
  const ScanParams& p = args.smoke ? kSmoke : kFull;
  Outcome out;
  Tracer tracer(args.trace);

  Rng corpus_rng(StreamSeed(args.seed, 1));
  const std::vector<uint64_t> corpus =
      ClusteredCodes(&corpus_rng, p.n, kBits, p.centres, 0.08);
  Rng query_rng(StreamSeed(args.seed, 2));
  std::vector<uint64_t> qword(p.pool);
  std::vector<std::size_t> qh(p.pool);
  for (std::size_t i = 0; i < p.pool; ++i) {
    qword[i] = FlipBits(corpus[query_rng.Below(p.n)], kBits, 2, &query_rng);
    qh[i] = query_rng.Uniform() < 0.75 ? 3 : 9;
  }
  const RequestFn make = [&](uint64_t i) {
    return QueryRequest::Range(ToCode(qword[i % p.pool], kBits),
                               qh[i % p.pool]);
  };

  // Set-up: Build, Start and the warm-up burst, kSetupRepeats times; the last
  // index and engine serve the timed phase.
  std::unique_ptr<LinearScanIndex> index;
  std::unique_ptr<QueryEngine> engine;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (engine) engine->Shutdown();
    engine.reset();
    index.reset();
    std::vector<hamming::BinaryCode> codes = ToCodes(corpus, kBits);
    const auto t0 = Clock::now();
    index = std::make_unique<LinearScanIndex>();
    if (!index->Build(codes).ok()) {
      out.Wrong("LinearScanIndex::Build failed");
      return out;
    }
    const auto t1 = Clock::now();
    codes = {};
    engine = std::make_unique<QueryEngine>(index.get(), EngineOptions());
    if (!engine->Start().ok()) {
      out.Wrong("QueryEngine::Start failed");
      return out;
    }
    RunBurst(engine.get(), make, 0, p.warmup);
    setup_s.push_back(Seconds(Clock::now() - t0));
    build_s.push_back(Seconds(t1 - t0));
  }

  std::vector<Check> checks;
  const CheckFn check = [&](const QueryRequest& req, Clock::time_point,
                            const ServeResult& r) {
    checks.push_back(Check{ToWord(req.code), req.h, r.response.ids});
  };

  const double fixed_s = args.seconds * (args.trace ? 0.25 : 0.5);
  uint64_t next = p.warmup;
  StealMeter steal;
  steal.Start();
  Window base;
  if (args.trace) {
    // Untraced reference window for trace.overhead_frac.
    base = RunOpenLoop(engine.get(), make, next, p.rate, fixed_s, 0, check,
                       nullptr);
    next += base.attempted;
  }
  const Window fixed = RunOpenLoop(engine.get(), make, next, p.rate, fixed_s,
                                   kCheckEvery, check, &tracer);
  next += fixed.attempted;
  const Burst tput = BestBurst(engine.get(), make, next, p.burst, &tracer);
  const Capacity cap = RunLadder(engine.get(), make, next, p.ladder_start,
                                 p.window_s, kSloMs, &tracer);
  const double steal_frac = steal.Stop();
  engine->Shutdown();

  for (Check& c : checks) {
    std::sort(c.ids.begin(), c.ids.end());
    if (c.ids != BruteRange(corpus, c.word, c.h)) {
      out.Wrong("scan_serve range answer differs from brute force");
    }
  }
  out.attempted =
      base.attempted + fixed.attempted + tput.attempted + cap.attempted;
  out.failed += (base.attempted - base.ok) + (fixed.attempted - fixed.ok) +
                (tput.attempted - tput.ok) + cap.failed;
  const double late = LateP99({&base, &fixed});
  out.Diag("gen.late_p99_ms", late, "ms");
  out.Diag("env.steal_frac", steal_frac, "1");
  out.Diag("oracle_checks", static_cast<double>(checks.size()), "count");
  out.Diag("slo_capacity_per_s", cap.qps, "1/s");
  out.Diag("ladder_windows", cap.windows, "count");

  if (!args.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("peak_rss_mb", PeakRssMb(), "MB");
    LatencyDiagnostics(fixed, &out);
    out.Set("throughput_per_s", tput.per_s, "1/s");
    return out;
  }

  KernelProbes(*index, p.n, qword, kBits, &tracer, &out);
  out.Set("index.bytes", static_cast<double>(index->Memory().total()),
          "bytes");
  out.Set("index.build_s", Median(build_s), "s");
  ServingMetrics(fixed, cap, &out);
  out.Set("gen.late_p99_ms", late, "ms");
  out.Set("env.steal_frac", steal_frac, "1");
  out.Set("trace.overhead_frac",
          Quantile(fixed.latency_ms, 0.5) / Quantile(base.latency_ms, 0.5) -
              1.0,
          "1");
  tracer.Write(args.out_dir, "scan_serve");
  return out;
}

}  // namespace perfbench
