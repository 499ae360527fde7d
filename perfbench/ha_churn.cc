// ha_churn: the paper's dynamic HA-Index answering open-loop reads while
// one writer thread runs an open-loop insert/delete stream. DHA H-Search,
// epoch publishing and base rebuilds do the work; the scan kernels touch
// only the delta.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "index/concurrent_ha_index.h"
#include "index/linear_scan.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using hamming::ConcurrentHAIndex;
using hamming::LinearScanIndex;
using hamming::QueryKind;
using hamming::QueryRequest;
using hamming::TupleId;
using hamming::serving::QueryEngine;
using hamming::serving::ServeResult;

namespace {

struct ChurnParams {
  std::size_t n;
  std::size_t centres;
  std::size_t fresh;   // codes available to inserts
  std::size_t pool;    // distinct reads, cycled
  double rate;         // fixed read rate, q/s
  double write_rate;   // mutations/s
  double ladder_start; // first capacity-ladder rate, q/s
  double window_s;     // capacity-ladder window
  uint64_t warmup;     // warm-up burst size
  uint64_t burst;      // throughput burst size
};

constexpr ChurnParams kFull{1u << 17, 2048, 40000, 65536, 2000, 400,
                            8000, 0.5, 1024, 4096};
constexpr ChurnParams kSmoke{1u << 12, 64, 4000, 1024, 300, 100,
                             500, 0.2, 64, 256};
constexpr std::size_t kBits = 32;
constexpr std::size_t kRangeH = 3;
constexpr std::size_t kKnnK = 10;
constexpr uint64_t kCheckEvery = 16;

// When a tuple id could be seen by readers: its Insert call started at
// ins_start and returned at ins_end; its Delete call likewise. Initial
// tuples were inserted before time began; undeleted ones never leave.
struct Life {
  Clock::time_point ins_start = Clock::time_point::min();
  Clock::time_point ins_end = Clock::time_point::min();
  Clock::time_point del_start = Clock::time_point::max();
  Clock::time_point del_end = Clock::time_point::max();
};

// The open-loop write stream: alternately inserts the next fresh code
// and deletes a seeded-random live tuple, so the corpus size stays put.
class Writer {
 public:
  Writer(ConcurrentHAIndex* index, const std::vector<uint64_t>* words,
         std::vector<Life>* life, std::size_t initial, uint64_t seed,
         double rate, Tracer* tracer)
      : index_(index), words_(words), life_(life), next_fresh_(initial),
        rng_(seed), rate_(rate), tracer_(tracer) {
    live_.resize(initial);
    for (std::size_t i = 0; i < initial; ++i) {
      live_[i] = static_cast<TupleId>(i);
    }
  }
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Read after Stop().
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> ack_ms;   // scheduled time -> call return
  std::vector<double> call_us;  // call start -> call return
  std::size_t ids_used() const { return next_fresh_; }
  const std::vector<TupleId>& live() const { return live_; }

 private:
  void Loop() {
    const auto start = Clock::now();
    const double step_ns = 1e9 / rate_;
    for (uint64_t k = 0; !stop_.load(); ++k) {
      const auto scheduled =
          start + std::chrono::nanoseconds(
                      std::llround(static_cast<double>(k) * step_ns));
      std::this_thread::sleep_until(scheduled);
      const bool insert = k % 2 == 0;
      if (insert && next_fresh_ >= words_->size()) break;
      if (!insert && live_.empty()) continue;
      TupleId id;
      if (insert) {
        id = static_cast<TupleId>(next_fresh_++);
        live_.push_back(id);
      } else {
        const std::size_t slot = rng_.Below(live_.size());
        id = live_[slot];
        live_[slot] = live_.back();
        live_.pop_back();
      }
      const auto code = ToCode((*words_)[id], kBits);
      const auto call_start = Clock::now();
      const bool ok = insert ? index_->Insert(id, code).ok()
                             : index_->Delete(id, code).ok();
      const auto call_end = Clock::now();
      Life& l = (*life_)[id];
      if (insert) {
        l.ins_start = call_start;
        l.ins_end = call_end;
      } else {
        l.del_start = call_start;
        l.del_end = call_end;
      }
      tracer_->Add(insert ? "index.insert" : "index.delete", call_start,
                   call_end, 0, 3);
      ++attempted;
      if (!ok) ++failed;
      ack_ms.push_back(Millis(call_end - scheduled));
      call_us.push_back(1e3 * Millis(call_end - call_start));
    }
  }

  ConcurrentHAIndex* index_;
  const std::vector<uint64_t>* words_;
  std::vector<Life>* life_;
  std::vector<TupleId> live_;
  std::size_t next_fresh_;
  Rng rng_;
  double rate_;
  Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joined before the members it uses go
};

struct Check {
  QueryRequest req;
  Clock::time_point start;
  Clock::time_point end;
  std::vector<TupleId> ids;
  std::vector<std::pair<TupleId, uint32_t>> neighbors;
};

// An answer may hold only ids live at some instant of [start, end], and
// must hold every matching id live for the whole of it.
void Verify(const Check& c, const std::vector<uint64_t>& words,
            const std::vector<Life>& life, std::size_t ids_used,
            Outcome* out) {
  const uint64_t q = ToWord(c.req.code);
  auto maybe_live = [&](TupleId id) {
    return id < ids_used && life[id].ins_start <= c.end &&
           life[id].del_end >= c.start;
  };
  auto always_live = [&](std::size_t id) {
    return life[id].ins_end <= c.start && life[id].del_start >= c.end;
  };
  if (c.req.kind == QueryKind::kRange) {
    std::vector<TupleId> got = c.ids;
    std::sort(got.begin(), got.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
      out->Wrong("ha_churn range answer repeats an id");
      return;
    }
    for (TupleId id : got) {
      if (!maybe_live(id) ||
          static_cast<std::size_t>(Distance(words[id], q)) > c.req.h) {
        out->Wrong("ha_churn range answer holds a non-match");
        return;
      }
    }
    for (std::size_t id = 0; id < ids_used; ++id) {
      if (static_cast<std::size_t>(Distance(words[id], q)) <= c.req.h &&
          always_live(id) &&
          !std::binary_search(got.begin(), got.end(),
                              static_cast<TupleId>(id))) {
        out->Wrong("ha_churn range answer misses a live match");
        return;
      }
    }
    return;
  }
  if (c.neighbors.size() != c.req.k) {
    out->Wrong("ha_churn kNN answer has the wrong size");
    return;
  }
  uint32_t prev = 0;
  for (const auto& [id, d] : c.neighbors) {
    if (!maybe_live(id) || static_cast<uint32_t>(Distance(words[id], q)) != d ||
        d < prev) {
      out->Wrong("ha_churn kNN answer has a wrong id or order");
      return;
    }
    prev = d;
  }
  std::vector<int> live_d;
  for (std::size_t id = 0; id < ids_used; ++id) {
    if (always_live(id)) live_d.push_back(Distance(words[id], q));
  }
  const std::size_t kth = c.req.k - 1;
  if (live_d.size() > kth) {
    std::nth_element(live_d.begin(), live_d.begin() + kth, live_d.end());
    if (c.neighbors.back().second > static_cast<uint32_t>(live_d[kth])) {
      out->Wrong("ha_churn kNN answer is not the nearest");
    }
  }
}

}  // namespace

Outcome RunHaChurn(const Args& args) {
  const ChurnParams& p = args.smoke ? kSmoke : kFull;
  Outcome out;
  Tracer tracer(args.trace);

  // One draw gives the initial corpus and the fresh insert codes, so both
  // come from the same centres.
  Rng corpus_rng(StreamSeed(args.seed, 1));
  const std::vector<uint64_t> words =
      ClusteredCodes(&corpus_rng, p.n + p.fresh, kBits, p.centres, 0.05);
  const std::vector<uint64_t> initial(words.begin(), words.begin() + p.n);
  Rng query_rng(StreamSeed(args.seed, 2));
  std::vector<QueryRequest> reads(p.pool);
  std::vector<uint64_t> probe_words(p.pool);
  for (std::size_t i = 0; i < p.pool; ++i) {
    probe_words[i] =
        FlipBits(words[query_rng.Below(p.n)], kBits, 1, &query_rng);
    const auto code = ToCode(probe_words[i], kBits);
    reads[i] = query_rng.Uniform() < 0.9 ? QueryRequest::Range(code, kRangeH)
                                         : QueryRequest::Knn(code, kKnnK);
  }
  const RequestFn make = [&](uint64_t i) { return reads[i % p.pool]; };

  std::unique_ptr<ConcurrentHAIndex> index;
  std::unique_ptr<QueryEngine> engine;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (engine) engine->Shutdown();
    engine.reset();
    index.reset();
    std::vector<hamming::BinaryCode> codes = ToCodes(initial, kBits);
    const auto t0 = Clock::now();
    index = std::make_unique<ConcurrentHAIndex>();
    if (!index->Build(codes).ok()) {
      out.Wrong("ConcurrentHAIndex::Build failed");
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

  std::vector<Life> life(words.size());
  std::vector<Check> checks;
  const CheckFn check = [&](const QueryRequest& req,
                            Clock::time_point submitted,
                            const ServeResult& r) {
    checks.push_back(Check{req, submitted, r.completed_at, r.response.ids,
                           r.response.neighbors});
  };

  const uint64_t epochs0 = index->epoch();
  const uint64_t rebuilds0 = index->rebuilds();
  // The write stream runs beside the fixed-rate reads only, so every run
  // applies the same mutations at the same instants: at 400/s and the
  // default rebuild_threshold of 4096, a 15 s run meets exactly one base
  // rebuild, about 10.2 s in. Throughput and the ladder then probe the
  // churned index with its delta frozen: the write path's per-mutation
  // cost grows with the delta, so probes racing it would measure how far
  // the delta had grown rather than read capacity.
  const double fixed_s = args.seconds * (args.trace ? 0.375 : 0.75);
  uint64_t next = p.warmup;
  StealMeter steal;
  Writer writer(index.get(), &words, &life, p.n,
                StreamSeed(args.seed, 3), p.write_rate, &tracer);
  steal.Start();
  writer.Start();
  Window base;
  if (args.trace) {
    base = RunOpenLoop(engine.get(), make, next, p.rate, fixed_s, 0, check,
                       nullptr);
    next += base.attempted;
  }
  const Window fixed = RunOpenLoop(engine.get(), make, next, p.rate, fixed_s,
                                   kCheckEvery, check, &tracer);
  next += fixed.attempted;
  writer.Stop();
  const Burst tput = BestBurst(engine.get(), make, next, p.burst, &tracer);
  // The SLO ladder counts h = 3 range reads (Table 4's h-select) only: a
  // few kNN reads whose radius expansion reaches h = 7 cost milliseconds
  // each, and how many of them land in a half-second window would decide
  // the ladder. Their cost stays in p50, throughput and the tails.
  const RequestFn make_range = [&](uint64_t i) {
    return QueryRequest::Range(reads[i % p.pool].code, kRangeH);
  };
  const Capacity cap = RunLadder(engine.get(), make_range, next,
                                 p.ladder_start, p.window_s, kSloMs, &tracer);
  const double steal_frac = steal.Stop();
  engine->Shutdown();

  for (const Check& c : checks) {
    Verify(c, words, life, writer.ids_used(), &out);
  }
  out.attempted = base.attempted + fixed.attempted + tput.attempted +
                  cap.attempted + writer.attempted;
  out.failed += (base.attempted - base.ok) + (fixed.attempted - fixed.ok) +
                (tput.attempted - tput.ok) + cap.failed + writer.failed;
  const double late = LateP99({&base, &fixed});
  const double rebuilds = static_cast<double>(index->rebuilds() - rebuilds0);
  const double epochs = static_cast<double>(index->epoch() - epochs0);
  out.Diag("gen.late_p99_ms", late, "ms");
  out.Diag("env.steal_frac", steal_frac, "1");
  out.Diag("oracle_checks", static_cast<double>(checks.size()), "count");
  out.Diag("slo_capacity_per_s", cap.qps, "1/s");
  out.Diag("ladder_windows", cap.windows, "count");
  out.Diag("mut_p50_ms", Quantile(writer.ack_ms, 0.5), "ms");
  out.Diag("mut_p99_ms", Quantile(writer.ack_ms, 0.99), "ms");
  out.Diag("mut_max_ms", Quantile(writer.ack_ms, 1.0), "ms");
  out.Diag("mutations", static_cast<double>(writer.attempted), "count");
  out.Diag("rebuilds", rebuilds, "count");
  std::vector<double> range_ms, knn_ms;
  for (std::size_t i = 0; i < fixed.latency_ms.size(); ++i) {
    (fixed.knn[i] ? knn_ms : range_ms).push_back(fixed.latency_ms[i]);
  }
  out.Diag("range_p90_ms", Quantile(range_ms, 0.9), "ms");
  out.Diag("knn_p50_ms", Quantile(knn_ms, 0.5), "ms");
  out.Diag("knn_p90_ms", Quantile(knn_ms, 0.9), "ms");

  if (!args.trace) {
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("peak_rss_mb", PeakRssMb(), "MB");
    LatencyDiagnostics(fixed, &out);
    out.Set("throughput_per_s", tput.per_s, "1/s");
    return out;
  }

  // Read probes with the writer stopped, against a scan over the same
  // live codes.
  std::vector<uint64_t> live_words;
  for (TupleId id : writer.live()) live_words.push_back(words[id]);
  LinearScanIndex scan;
  if (!scan.Build(ToCodes(live_words, kBits)).ok()) {
    out.Wrong("LinearScanIndex::Build failed");
    return out;
  }
  KernelProbes(scan, live_words.size(), probe_words, kBits, &tracer, &out);
  IndexReadProbes(*index, scan, probe_words, kBits, &tracer, &out);
  out.Set("index.bytes", static_cast<double>(index->Memory().total()),
          "bytes");
  out.Set("index.build_s", Median(build_s), "s");
  out.Set("index.mut_p50_ms", Quantile(writer.ack_ms, 0.5), "ms");
  out.Set("index.mut_call_p50_us", Quantile(writer.call_us, 0.5), "us");
  out.Set("index.mut_call_p99_ms", Quantile(writer.call_us, 0.99) / 1e3,
          "ms");
  out.Set("index.mut_call_max_ms", Quantile(writer.call_us, 1.0) / 1e3, "ms");
  out.Set("index.rebuilds", rebuilds, "count");
  out.Set("index.epochs", epochs, "count");
  ServingMetrics(fixed, cap, &out);
  out.Set("gen.late_p99_ms", late, "ms");
  out.Set("env.steal_frac", steal_frac, "1");
  out.Set("trace.overhead_frac",
          Quantile(fixed.latency_ms, 0.5) / Quantile(base.latency_ms, 0.5) -
              1.0,
          "1");
  tracer.Write(args.out_dir, "ha_churn");
  return out;
}

}  // namespace perfbench
