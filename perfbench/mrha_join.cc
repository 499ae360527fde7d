// mrha_join: the paper's MapReduce Hamming self-join (MRHA-Index Option
// A, h = 3, 16 partitions) on the simulated 16-node cluster, with a
// Spectral Hashing model trained once in set-up and passed as
// `pretrained` (the amortized re-learning of Section 6.2.3). Jobs run
// back to back: one batch user, closed loop. Serving and the write path
// do no work here.
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "hashing/spectral_hashing.h"
#include "index/dynamic_ha_index.h"
#include "index/linear_scan.h"
#include "layers.h"
#include "mapreduce/cluster.h"
#include "mapreduce/execution.h"
#include "mrjoin/mrha.h"
#include "observability/metrics.h"
#include "workloads.h"

namespace perfbench {

using hamming::FloatMatrix;
using hamming::JoinPair;
using hamming::SpectralHashing;
namespace mr = hamming::mr;
namespace mrjoin = hamming::mrjoin;

namespace {

struct JoinParams {
  std::size_t n;
  std::size_t centres;
  std::size_t train_rows;
};

constexpr JoinParams kFull{50000, 1000, 2000};
constexpr JoinParams kSmoke{2000, 50, 500};
constexpr std::size_t kDim = 64;
constexpr std::size_t kBits = 32;
constexpr std::size_t kH = 3;
constexpr double kCentreSpread = 1.0;
constexpr double kPointSpread = 0.08;

// Gaussian mixture: centres ~ N(0, kCentreSpread^2) per coordinate, each
// row a random centre plus N(0, kPointSpread^2) noise.
FloatMatrix MixtureRows(Rng* rng, std::size_t n, std::size_t centres) {
  FloatMatrix c(centres, kDim);
  for (std::size_t i = 0; i < centres; ++i) {
    for (double& v : c.MutableRow(i)) v = kCentreSpread * rng->Normal();
  }
  FloatMatrix rows(n, kDim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto centre = c.Row(rng->Below(centres));
    auto row = rows.MutableRow(i);
    for (std::size_t d = 0; d < kDim; ++d) {
      row[d] = centre[d] + kPointSpread * rng->Normal();
    }
  }
  return rows;
}

uint64_t PairKey(uint32_t r, uint32_t s) {
  return (static_cast<uint64_t>(r) << 32) | s;
}

// The self-join of `codes` at radius kH, as sorted pair keys (i, j)
// including i == j and both orders, split over `threads` threads.
std::vector<uint64_t> BruteSelfJoin(const std::vector<uint64_t>& codes,
                                    std::size_t threads) {
  std::vector<std::vector<uint64_t>> parts(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < codes.size(); i += threads) {
        for (std::size_t j = 0; j < codes.size(); ++j) {
          if (static_cast<std::size_t>(Distance(codes[i], codes[j])) <= kH) {
            parts[t].push_back(PairKey(static_cast<uint32_t>(i),
                                       static_cast<uint32_t>(j)));
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  std::vector<uint64_t> all;
  for (auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<uint64_t> SortedKeys(const std::vector<JoinPair>& pairs) {
  std::vector<uint64_t> keys;
  keys.reserve(pairs.size());
  for (const JoinPair& p : pairs) keys.push_back(PairKey(p.r, p.s));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Order-independent fingerprint of a pair multiset: count, sum and xor
// of a 64-bit mix of each pair.
struct Fingerprint {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t x = 0;
  bool operator==(const Fingerprint&) const = default;
};

uint64_t Mix(uint64_t v) {
  v ^= v >> 33;
  v *= 0xff51afd7ed558ccdull;
  v ^= v >> 33;
  v *= 0xc4ceb9fe1a85ec53ull;
  return v ^ (v >> 33);
}

template <typename Keys, typename KeyOf>
Fingerprint FingerprintOf(const Keys& keys, KeyOf key_of) {
  Fingerprint f;
  for (const auto& k : keys) {
    const uint64_t m = Mix(key_of(k));
    ++f.count;
    f.sum += m;
    f.x ^= m;
  }
  return f;
}

// Records the runtime's job, phase and attempt events as child spans of
// the current RunMrhaJoin call, and sums phase times and failed
// attempts.
class PhaseObserver final : public mr::JobObserver {
 public:
  explicit PhaseObserver(Tracer* tracer) : tracer_(tracer) {}

  void StartCall(uint64_t call_span) {
    std::lock_guard<std::mutex> lock(mu_);
    call_span_ = call_span;
    phase_s_.clear();
  }

  void OnEvent(const mr::JobEvent& e) override {
    const auto now = Clock::now();
    const auto dur = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(e.duration_seconds));
    std::lock_guard<std::mutex> lock(mu_);
    switch (e.type) {
      case mr::JobEventType::kPhaseStart:
        if (e.detail == "map") {
          job_span_ = tracer_->Begin("mr.job", call_span_, 5);
        }
        phase_span_[e.detail] = tracer_->Begin("mr." + e.detail, job_span_, 5);
        break;
      case mr::JobEventType::kPhaseFinish:
        phase_s_[e.detail] += e.duration_seconds;
        tracer_->End(phase_span_[e.detail]);
        if (e.detail == "reduce") tracer_->End(job_span_);
        break;
      case mr::JobEventType::kAttemptFinish:
      case mr::JobEventType::kAttemptFail:
      case mr::JobEventType::kAttemptKill:
        if (e.type == mr::JobEventType::kAttemptFail) ++failed_attempts_;
        tracer_->Add(std::string("mr.") + mr::TaskKindName(e.kind) +
                         "_attempt",
                     now - dur, now,
                     phase_span_[e.kind == mr::TaskKind::kMap ? "map"
                                                              : "reduce"],
                     6);
        break;
      default:
        break;
    }
  }

  double PhaseSeconds(const std::string& phase) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = phase_s_.find(phase);
    return it == phase_s_.end() ? 0.0 : it->second;
  }
  uint64_t failed_attempts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_attempts_;
  }

 private:
  Tracer* tracer_;
  mutable std::mutex mu_;
  uint64_t call_span_ = 0;
  uint64_t job_span_ = 0;
  std::map<std::string, uint64_t> phase_span_;
  std::map<std::string, double> phase_s_;
  uint64_t failed_attempts_ = 0;
};

}  // namespace

Outcome RunMrhaJoin(const Args& args) {
  const JoinParams& p = args.smoke ? kSmoke : kFull;
  Outcome out;
  Tracer tracer(args.trace);

  Rng data_rng(StreamSeed(args.seed, 1));
  const FloatMatrix data = MixtureRows(&data_rng, p.n, p.centres);
  Rng sample_rng(StreamSeed(args.seed, 2));
  std::vector<std::size_t> sample_ids(p.train_rows);
  for (auto& id : sample_ids) id = sample_rng.Below(p.n);
  const FloatMatrix train_sample = data.GatherRows(sample_ids);

  mrjoin::MrhaOptions opts;
  opts.option = mrjoin::MrhaOption::kA;
  opts.num_partitions = 16;
  opts.code_bits = kBits;
  opts.h = kH;
  opts.seed = StreamSeed(args.seed, 3);
  mr::ClusterOptions cluster_opts;
  cluster_opts.num_nodes = 16;
  cluster_opts.slots_per_node = 4;
  cluster_opts.num_threads = 4;

  // Set-up, kSetupRepeats times: train the hash, stand up the cluster, run the
  // warm-up job. The first warm-up job is the process's cold job.
  std::unique_ptr<mr::Cluster> cluster;
  std::vector<double> setup_s;
  std::vector<double> train_s;
  double cold_job_s = 0.0;
  std::vector<JoinPair> warm_pairs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cluster.reset();
    const auto t0 = Clock::now();
    hamming::SpectralHashingOptions hash_opts;
    hash_opts.code_bits = kBits;
    auto trained = SpectralHashing::Train(train_sample, hash_opts);
    if (!trained.ok()) {
      out.Wrong("SpectralHashing::Train failed");
      return out;
    }
    opts.pretrained = std::shared_ptr<const SpectralHashing>(
        std::move(trained).ValueOrDie());
    const auto t1 = Clock::now();
    cluster = std::make_unique<mr::Cluster>(cluster_opts);
    const auto job0 = Clock::now();
    auto warm = mrjoin::RunMrhaJoin(data, data, opts, cluster.get());
    if (!warm.ok()) {
      out.Wrong("warm-up RunMrhaJoin failed: " + warm.status().ToString());
      return out;
    }
    const auto t2 = Clock::now();
    if (rep == 0) cold_job_s = Seconds(t2 - job0);
    warm_pairs = std::move(warm->pairs);
    setup_s.push_back(Seconds(t2 - t0));
    train_s.push_back(Seconds(t1 - t0));
  }

  // Reference answer from the benchmark's own popcount over HashAll codes.
  const auto h0 = Clock::now();
  const std::vector<hamming::BinaryCode> codes = opts.pretrained->HashAll(data);
  const double hash_s = Seconds(Clock::now() - h0);
  std::vector<uint64_t> words;
  words.reserve(codes.size());
  for (const auto& c : codes) words.push_back(ToWord(c));
  const std::vector<uint64_t> truth = BruteSelfJoin(words, 4);
  const auto truth_fp = FingerprintOf(truth, [](uint64_t k) { return k; });
  if (SortedKeys(warm_pairs) != truth) {
    out.Wrong("warm-up join pairs differ from the brute-force self-join");
  }
  warm_pairs = {};

  // One timed RunMrhaJoin call, checked against the reference; null when
  // the call fails.
  auto run_job = [&](PhaseObserver* observer,
                     hamming::obs::MetricsRegistry* registry,
                     double* job_s) -> std::unique_ptr<mrjoin::MrhaResult> {
    mrjoin::MrhaOptions job_opts = opts;
    job_opts.exec.observer = observer;
    job_opts.exec.metrics = registry;
    ScopedSpan span(&tracer, "mrjoin.run", 0, 0);
    if (observer != nullptr) observer->StartCall(span.id());
    const auto start = Clock::now();
    auto r = mrjoin::RunMrhaJoin(data, data, job_opts, cluster.get());
    *job_s = Seconds(Clock::now() - start);
    ++out.attempted;
    if (!r.ok()) {
      ++out.failed;
      return nullptr;
    }
    const auto fp = FingerprintOf(
        r->pairs, [](const JoinPair& jp) { return PairKey(jp.r, jp.s); });
    if (!(fp == truth_fp)) out.Wrong("join pairs differ from the self-join");
    return std::make_unique<mrjoin::MrhaResult>(std::move(r).ValueOrDie());
  };

  StealMeter steal;
  steal.Start();
  std::vector<double> base_s;
  if (args.trace) {
    for (int i = 0; i < 2; ++i) {
      double s = 0.0;
      run_job(nullptr, nullptr, &s);
      base_s.push_back(s);
    }
  }
  PhaseObserver observer(&tracer);
  std::vector<double> job_s;
  std::vector<double> map_s, shuffle_s, reduce_s, skew, driver_s;
  std::vector<double> pivot_s, build_s, join_s;
  double net_bytes = 0.0, shuffle_bytes = 0.0, broadcast_bytes = 0.0;
  double pairs = 0.0;
  const double budget = args.seconds * (args.trace ? 0.5 : 1.0);
  const auto t_begin = Clock::now();
  while (job_s.size() < 3 || Seconds(Clock::now() - t_begin) < budget) {
    hamming::obs::MetricsRegistry registry;
    double s = 0.0;
    auto r = run_job(args.trace ? &observer : nullptr,
                     args.trace ? &registry : nullptr, &s);
    job_s.push_back(s);
    if (r == nullptr) continue;
    shuffle_bytes = static_cast<double>(r->shuffle_bytes);
    broadcast_bytes = static_cast<double>(r->broadcast_bytes);
    net_bytes = shuffle_bytes + broadcast_bytes;
    pairs = static_cast<double>(r->pairs.size());
    const auto& ph = r->phase_seconds;
    pivot_s.push_back(ph.pivot_selection);
    build_s.push_back(ph.index_build);
    join_s.push_back(ph.join);
    if (!args.trace) continue;
    const double m = observer.PhaseSeconds("map");
    const double sh = observer.PhaseSeconds("shuffle");
    const double re = observer.PhaseSeconds("reduce");
    map_s.push_back(m);
    shuffle_s.push_back(sh);
    reduce_s.push_back(re);
    driver_s.push_back(ph.pivot_selection + ph.index_build + ph.join - m -
                       sh - re);
    const auto snap = registry.Snapshot();
    auto it = snap.histograms.find("mr.reduce_input_records");
    skew.push_back(it == snap.histograms.end() ? 0.0
                                               : it->second.SkewMaxOverMean());
  }
  const double steal_frac = steal.Stop();
  cluster.reset();

  double total_s = 0.0;
  for (double s : job_s) total_s += s;
  out.Diag("env.steal_frac", steal_frac, "1");
  out.Diag("jobs", static_cast<double>(job_s.size()), "count");
  out.Diag("net_mb", net_bytes / 1e6, "MB");
  out.Diag("pairs", pairs, "count");
  out.Diag("max_job_ms", 1e3 * Quantile(job_s, 1.0), "ms");

  if (!args.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("peak_rss_mb", PeakRssMb(), "MB");
    out.Diag("p50_ms", 1e3 * Median(job_s), "ms");
    out.Diag("p90_ms", 1e3 * Quantile(job_s, 0.9), "ms");
    out.Set("throughput_per_s",
            static_cast<double>(p.n * job_s.size()) / total_s, "1/s");
    return out;
  }

  out.Set("mr.map_s", Median(map_s), "s");
  out.Set("mr.shuffle_s", Median(shuffle_s), "s");
  out.Set("mr.reduce_s", Median(reduce_s), "s");
  out.Set("mr.reduce_skew", Median(skew), "1");
  out.Set("mr.failed_attempts", static_cast<double>(observer.failed_attempts()),
          "count");
  out.Set("mrjoin.pivot_s", Median(pivot_s), "s");
  out.Set("mrjoin.build_s", Median(build_s), "s");
  out.Set("mrjoin.join_s", Median(join_s), "s");
  out.Set("mrjoin.driver_s", Median(driver_s), "s");
  out.Set("mrjoin.shuffle_mb", shuffle_bytes / 1e6, "MB");
  out.Set("mrjoin.broadcast_mb", broadcast_bytes / 1e6, "MB");
  out.Set("mrjoin.net_mb", net_bytes / 1e6, "MB");
  out.Set("mrjoin.pairs", pairs, "count");
  out.Set("mrjoin.cold_job_s", cold_job_s, "s");
  out.Set("hashing.train_s", Median(train_s), "s");
  out.Set("hashing.row_us", 1e6 * hash_s / static_cast<double>(p.n), "us");
  out.Set("env.steal_frac", steal_frac, "1");
  out.Set("trace.overhead_frac", Median(job_s) / Median(base_s) - 1.0, "1");

  // The HA-Index the join reducers probe, and the scan, over the same
  // codes, probed one query at a time.
  Rng probe_rng(StreamSeed(args.seed, 4));
  std::vector<uint64_t> probes(1024);
  for (auto& q : probes) {
    q = FlipBits(words[probe_rng.Below(words.size())], kBits, 1, &probe_rng);
  }
  hamming::DynamicHAIndex ha;
  const auto b0 = Clock::now();
  if (!ha.Build(codes).ok()) {
    out.Wrong("DynamicHAIndex::Build failed");
    return out;
  }
  out.Set("index.build_s", Seconds(Clock::now() - b0), "s");
  out.Set("index.bytes", static_cast<double>(ha.Memory().total()), "bytes");
  hamming::LinearScanIndex scan;
  if (!scan.Build(codes).ok()) {
    out.Wrong("LinearScanIndex::Build failed");
    return out;
  }
  KernelProbes(scan, codes.size(), probes, kBits, &tracer, &out);
  IndexReadProbes(ha, scan, probes, kBits, &tracer, &out);
  tracer.Write(args.out_dir, "mrha_join");
  return out;
}

}  // namespace perfbench
