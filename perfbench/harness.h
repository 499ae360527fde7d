// Shared machinery of the benchmark program: the seeded input generator,
// the brute-force oracle over packed code words, timing and percentile
// helpers, the host/noise record, the in-memory span recorder, and the
// open-loop load generator with its capacity ladder.
//
// Inputs never come from the library (src/dataset, bench_common.h): the
// benchmark owns its generator so a program change cannot alter a
// workload, and every claim can be re-checked on an unused seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "code/binary_code.h"
#include "index/query.h"
#include "serving/query_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

// ---- Seeded generator ------------------------------------------------

/// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Standard normal (Box-Muller).
  double Normal();

 private:
  uint64_t state_;
};

/// Mixes the workload seed with a stream tag so each input stream of a
/// workload (corpus, queries, mutations, ...) is independent.
uint64_t StreamSeed(uint64_t seed, uint64_t tag);

// Codes of `bits` <= 64 bits are kept as one word laid out exactly like
// BinaryCode::words()[0]: bit position 0 is the word's top bit and the
// low 64 - bits bits are zero.

/// `n` clustered codes: `centres` uniform centres, each code a random
/// centre with every bit flipped independently with probability `p`.
std::vector<uint64_t> ClusteredCodes(Rng* rng, std::size_t n,
                                     std::size_t bits, std::size_t centres,
                                     double p);

/// `code` with `flips` distinct random bit positions flipped.
uint64_t FlipBits(uint64_t code, std::size_t bits, std::size_t flips,
                  Rng* rng);

hamming::BinaryCode ToCode(uint64_t word, std::size_t bits);
std::vector<hamming::BinaryCode> ToCodes(const std::vector<uint64_t>& words,
                                         std::size_t bits);
uint64_t ToWord(const hamming::BinaryCode& code);

inline int Distance(uint64_t a, uint64_t b) {
  return __builtin_popcountll(a ^ b);
}

/// Brute-force oracle: sorted ids of `corpus` within `h` of `query`.
std::vector<uint32_t> BruteRange(const std::vector<uint64_t>& corpus,
                                 uint64_t query, std::size_t h);

// ---- Timing and statistics ------------------------------------------

double Seconds(Clock::duration d);
double Millis(Clock::duration d);

/// Linear-interpolated quantile of `v` (q in [0, 1]); sorts a copy.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// ---- Host and noise record ------------------------------------------

/// Peak resident set size of the process, in MB.
double PeakRssMb();

/// Share of CPU time the hypervisor stole between Start() and Stop(),
/// from /proc/stat (0 where it is unavailable).
class StealMeter {
 public:
  void Start();
  double Stop() const;

 private:
  uint64_t steal_ = 0;
  uint64_t total_ = 0;
};

/// One JSON object: cores, CPU model, active kernel tier, compiler,
/// build type and git sha.
std::string HostJson(const Args& args);

// ---- Result ----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Diagnostics printed on their own line, never gated.
  std::map<std::string, Metric> diagnostics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Diag(const std::string& name, double value, const std::string& unit) {
    diagnostics[name] = Metric{value, unit};
  }
  /// Records an oracle failure with a message on stderr.
  void Wrong(const std::string& what);
};

std::string MetricsJson(const std::map<std::string, Metric>& metrics);

// ---- Span recorder ---------------------------------------------------

/// Spans recorded from the benchmark's own code around each call into a
/// layer. Kept in memory; written at the end as Chrome/Perfetto JSON plus
/// a per-layer self-time table. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records one finished span; returns its id (0 when disabled).
  /// `parent` 0 = root. `lane` picks the timeline row.
  uint64_t Add(const std::string& name, Clock::time_point start,
               Clock::time_point end, uint64_t parent, uint32_t lane,
               uint64_t request = 0);

  /// Opens a span starting now, so children can name it as their parent
  /// before it ends; End() closes it. Both are no-ops when disabled.
  uint64_t Begin(const std::string& name, uint64_t parent, uint32_t lane);
  void End(uint64_t id);

  /// Writes `<dir>/<stem>.trace.json` and `<dir>/<stem>.layers.json`.
  void Write(const std::string& dir, const std::string& stem) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;
    uint32_t lane;
    uint64_t request;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call from the benchmark into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t parent = 0,
             uint32_t lane = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, lane)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

// ---- Open-loop load --------------------------------------------------

/// Builds the i-th request of a workload's query stream.
using RequestFn = std::function<hamming::QueryRequest(uint64_t i)>;

/// What one open-loop window observed. Latencies run from each request's
/// scheduled arrival to ServeResult::completed_at.
struct Window {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  std::vector<double> latency_ms;   // OK requests only
  std::vector<bool> knn;            // parallel to latency_ms
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  std::vector<double> overhead_us;  // e2e from submit - queue - service
  std::vector<double> late_ms;      // generator lateness per arrival
  double batch_mean = 0.0;
  double tail_ms = 0.0;  // last completion minus the last scheduled arrival
};

/// Inspects one finished request: the request, when it was submitted
/// (the engine's answer carries when it completed) and the answer.
using CheckFn = std::function<void(const hamming::QueryRequest&,
                                   Clock::time_point submitted,
                                   const hamming::serving::ServeResult&)>;

/// Offers `rate` arrivals per second for `seconds` from the calling thread
/// (requests first_index, first_index + 1, ...), sleeping to each
/// scheduled arrival, then waits for every completion. Every
/// `check_every`-th request goes to `check` (0 = none). With a tracer,
/// each request's scheduled -> submitted -> dequeued -> index call ->
/// completed spans are recorded under one request id.
Window RunOpenLoop(hamming::serving::QueryEngine* engine,
                   const RequestFn& make, uint64_t first_index, double rate,
                   double seconds, uint64_t check_every, const CheckFn& check,
                   Tracer* tracer);

/// The capacity ladder: the highest offered rate whose window has
/// p90 <= slo_ms, >= 99% OK and its last completion within slo_ms of the
/// last scheduled arrival. Starts at `start_rate`, steps x1.25 until two
/// steps in a row fail (each failing window is re-run once), then
/// bisects above the highest passing rate to 2%.
/// Every window replays the requests from `first_index` on, so rates are
/// compared on the same queries.
struct Capacity {
  double qps = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK requests across every window
  int windows = 0;
  double batch_mean = 0.0;  // of the last passing window
};
Capacity RunLadder(hamming::serving::QueryEngine* engine,
                   const RequestFn& make, uint64_t first_index,
                   double start_rate, double window_seconds, double slo_ms,
                   Tracer* tracer);

/// The engine every serving workload uses: 2 workers, batches of up to
/// 64, no linger, no shedding, and a queue deep enough that overload
/// shows as latency rather than as rejections.
hamming::serving::QueryEngineOptions EngineOptions();

/// Submits requests first_index .. first_index + count - 1 back to back
/// and waits for all of them. The engine runs saturated with full
/// batches, so OK completions per second is its throughput; the warm-up
/// is one such burst, whose wall time scales with the program's speed.
struct Burst {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  double per_s = 0.0;
};
Burst RunBurst(hamming::serving::QueryEngine* engine, const RequestFn& make,
               uint64_t first_index, uint64_t count);

/// throughput_per_s of a serving workload: the best of five bursts of
/// `count` requests (each replaying the same requests; host stalls only
/// ever lower a burst's rate), with the bursts' request tallies summed.
Burst BestBurst(hamming::serving::QueryEngine* engine, const RequestFn& make,
                uint64_t first_index, uint64_t count, Tracer* tracer);

/// Makes the calling process's sleeps wake on time (1 ns timer slack).
void TightenTimerSlack();

}  // namespace perfbench
