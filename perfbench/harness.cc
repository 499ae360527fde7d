#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <thread>

#include "kernels/hamming_kernels.h"

namespace perfbench {

using hamming::BinaryCode;
using hamming::QueryRequest;
using hamming::serving::QueryEngine;
using hamming::serving::ServeResult;

// ---- Seeded generator ------------------------------------------------

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Normal() {
  double u1 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  Rng mix(seed * 0x2545f4914f6cdd1dull + tag);
  return mix.Next();
}

namespace {

uint64_t BitAt(std::size_t pos) { return 1ull << (63 - pos); }

}  // namespace

std::vector<uint64_t> ClusteredCodes(Rng* rng, std::size_t n,
                                     std::size_t bits, std::size_t centres,
                                     double p) {
  const uint64_t mask = bits >= 64 ? ~0ull : ~0ull << (64 - bits);
  std::vector<uint64_t> centre(centres);
  for (auto& c : centre) c = rng->Next() & mask;
  std::vector<uint64_t> codes(n);
  for (auto& code : codes) {
    uint64_t w = centre[rng->Below(centres)];
    for (std::size_t b = 0; b < bits; ++b) {
      if (rng->Uniform() < p) w ^= BitAt(b);
    }
    code = w;
  }
  return codes;
}

uint64_t FlipBits(uint64_t code, std::size_t bits, std::size_t flips,
                  Rng* rng) {
  uint64_t flipped = 0;
  while (static_cast<std::size_t>(__builtin_popcountll(flipped)) < flips) {
    flipped |= BitAt(rng->Below(bits));
  }
  return code ^ flipped;
}

BinaryCode ToCode(uint64_t word, std::size_t bits) {
  BinaryCode code(bits);
  code.mutable_words()[0] = word;
  code.MaskTail();
  return code;
}

std::vector<BinaryCode> ToCodes(const std::vector<uint64_t>& words,
                                std::size_t bits) {
  std::vector<BinaryCode> codes;
  codes.reserve(words.size());
  for (uint64_t w : words) codes.push_back(ToCode(w, bits));
  return codes;
}

uint64_t ToWord(const BinaryCode& code) { return code.words()[0]; }

std::vector<uint32_t> BruteRange(const std::vector<uint64_t>& corpus,
                                 uint64_t query, std::size_t h) {
  std::vector<uint32_t> ids;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (static_cast<std::size_t>(Distance(corpus[i], query)) <= h) {
      ids.push_back(static_cast<uint32_t>(i));
    }
  }
  return ids;
}

// ---- Timing and statistics ------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---- Host and noise record ------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

// (steal, total) jiffies from the aggregate "cpu" line of /proc/stat.
std::pair<uint64_t, uint64_t> ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return {0, 0};
  uint64_t fields[8] = {0};
  uint64_t total = 0;
  for (uint64_t& f : fields) {
    in >> f;
    total += f;
  }
  return {fields[7], total};
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void StealMeter::Start() {
  std::tie(steal_, total_) = ReadCpuJiffies();
}

double StealMeter::Stop() const {
  const auto [steal, total] = ReadCpuJiffies();
  if (total <= total_) return 0.0;
  return static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

std::string HostJson(const Args& args) {
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << JsonEscape(CpuModel()) << "\""
     << ", \"kernel_tier\": \""
     << hamming::kernels::BackendName(hamming::kernels::ActiveBackend())
     << "\", \"compiler\": \"" << JsonEscape(__VERSION__) << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"git_sha\": \"" << JsonEscape(args.git_sha) << "\"}";
  return os.str();
}

// ---- Result ----------------------------------------------------------

void Outcome::Wrong(const std::string& what) {
  if (correct || failed < 10) std::cerr << "oracle: " << what << "\n";
  correct = false;
  ++failed;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}";
  return os.str();
}

// ---- Span recorder ---------------------------------------------------

uint64_t Tracer::Add(const std::string& name, Clock::time_point start,
                     Clock::time_point end, uint64_t parent, uint32_t lane,
                     uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{
      name, std::chrono::duration_cast<std::chrono::nanoseconds>(
                start - origin_).count(),
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count(),
      id, parent, lane, request});
  return id;
}

uint64_t Tracer::Begin(const std::string& name, uint64_t parent,
                       uint32_t lane) {
  const auto now = Clock::now();
  return Add(name, now, now, parent, lane);
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const auto end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end_ns;
}

void Tracer::Write(const std::string& dir, const std::string& stem) const {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  {
    std::ofstream out(dir + "/" + stem + ".trace.json");
    out << "{\"traceEvents\": [\n";
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 0, \"args\": {\"name\": \"perfbench " << stem
        << "\"}}";
    char buf[96];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf), "%.3f, \"dur\": %.3f",
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out << ",\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << s.lane << ", \"ts\": " << buf
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
  }
  // Self time = duration minus the part of it the children cover.
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  struct Row {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    Row& row = rows[s.name];
    ++row.count;
    row.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    row.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  double all_self = 0.0;
  for (const auto& [name, row] : rows) all_self += row.self_ms;
  std::ofstream out(dir + "/" + stem + ".layers.json");
  out << "{\"base\": \"self_frac is a span's self time over the self time "
         "of every span (" << all_self << " ms)\", \"layers\": {";
  bool first = true;
  for (const auto& [name, row] : rows) {
    out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": "
        << row.count << ", \"total_ms\": " << row.total_ms
        << ", \"self_ms\": " << row.self_ms << ", \"self_frac\": "
        << (all_self > 0 ? row.self_ms / all_self : 0.0) << "}";
    first = false;
  }
  out << "\n}}\n";
}

// ---- Open-loop load --------------------------------------------------

Window RunOpenLoop(QueryEngine* engine, const RequestFn& make,
                   uint64_t first_index, double rate, double seconds,
                   uint64_t check_every, const CheckFn& check,
                   Tracer* tracer) {
  struct Pending {
    Clock::time_point scheduled;
    Clock::time_point submitted;
    std::future<ServeResult> result;
    bool admitted = false;
    QueryRequest kept;  // only for checked requests
  };
  const auto n = static_cast<uint64_t>(std::max(1.0, std::round(rate * seconds)));
  std::vector<Pending> pending(n);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const double step_ns = 1e9 / rate;
  for (uint64_t k = 0; k < n; ++k) {
    Pending& p = pending[k];
    p.scheduled =
        start + std::chrono::nanoseconds(
                    std::llround(static_cast<double>(k) * step_ns));
    std::this_thread::sleep_until(p.scheduled);
    QueryRequest req = make(first_index + k);
    const bool keep = check_every != 0 && (first_index + k) % check_every == 0;
    if (keep) p.kept = req;
    p.submitted = Clock::now();
    auto submitted = engine->Submit(std::move(req));
    if (submitted.ok()) {
      p.result = std::move(submitted).ValueOrDie();
      p.admitted = true;
    }
  }
  Window w;
  w.attempted = n;
  double batch_sum = 0.0;
  Clock::time_point last_done = start;
  for (uint64_t k = 0; k < n; ++k) {
    Pending& p = pending[k];
    w.late_ms.push_back(Millis(p.submitted - p.scheduled));
    if (!p.admitted) continue;
    const ServeResult r = p.result.get();
    last_done = std::max(last_done, r.completed_at);
    if (!r.response.status.ok()) continue;
    ++w.ok;
    const auto queue = std::chrono::duration_cast<Clock::duration>(
        r.queue_wait);
    const auto service = std::chrono::duration_cast<Clock::duration>(
        r.service_time);
    w.latency_ms.push_back(Millis(r.completed_at - p.scheduled));
    w.knn.push_back(!r.response.neighbors.empty());
    w.queue_ms.push_back(Millis(queue));
    w.service_ms.push_back(Millis(service));
    w.overhead_us.push_back(
        1e3 * Millis(r.completed_at - p.submitted - queue - service));
    batch_sum += static_cast<double>(r.batch_size);
    if (tracer != nullptr && tracer->enabled()) {
      const uint64_t id = first_index + k;
      const auto dequeued = p.submitted + queue;
      const auto index_start = r.completed_at - service;
      const uint64_t root =
          tracer->Add("request", p.scheduled, r.completed_at, 0, 1, id);
      tracer->Add("generator_lag", p.scheduled, p.submitted, root, 1, id);
      tracer->Add("queue", p.submitted, dequeued, root, 1, id);
      tracer->Add("batch_form", dequeued, std::max(dequeued, index_start),
                  root, 1, id);
      tracer->Add("index_call", index_start, r.completed_at, root, 1, id);
    }
    if (!p.kept.code.empty()) check(p.kept, p.submitted, r);
  }
  w.batch_mean = w.ok == 0 ? 0.0 : batch_sum / static_cast<double>(w.ok);
  w.tail_ms = Millis(last_done - pending.back().scheduled);
  return w;
}

Capacity RunLadder(QueryEngine* engine, const RequestFn& make,
                   uint64_t first_index, double start_rate,
                   double window_seconds, double slo_ms, Tracer* tracer) {
  Capacity cap;
  const CheckFn no_check;
  // One window at `rate`; a failing window is re-run once before the step
  // counts as failed, since a shared VM sees several host stalls a minute.
  auto passes = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto t0 = Clock::now();
      Window w = RunOpenLoop(engine, make, first_index, rate, window_seconds,
                             0, no_check, nullptr);
      tracer->Add("ladder_window", t0, Clock::now(), 0, 2);
      cap.attempted += w.attempted;
      cap.failed += w.attempted - w.ok;
      ++cap.windows;
      const double ok_frac =
          static_cast<double>(w.ok) / static_cast<double>(w.attempted);
      const double p90 = Quantile(w.latency_ms, 0.9);
      std::cerr << "ladder: rate " << rate << " p90 " << p90 << " ms, ok "
                << ok_frac << ", tail " << w.tail_ms << " ms\n";
      if (p90 <= slo_ms && ok_frac >= 0.99 && w.tail_ms <= slo_ms) {
        cap.batch_mean = w.batch_mean;
        return true;
      }
    }
    return false;
  };
  // Rise x1.25 until two steps in a row fail, so a stall that outlasts
  // one step's re-runs still cannot end the ladder. Bounded (x1.25^16 ~
  // 35x the start) so a toy-sized smoke run ends too.
  double lo = 0.0;
  double rate = start_rate;
  for (int step = 0, fails = 0; step < 16 && fails < 2; ++step) {
    if (passes(rate)) {
      lo = rate;
      fails = 0;
    } else {
      ++fails;
    }
    rate *= 1.25;
  }
  // Both first steps failed: step down until a rate passes.
  for (rate = start_rate; lo == 0.0 && rate > 1.0;) {
    rate /= 1.25;
    if (passes(rate)) lo = rate;
  }
  double hi = lo * 1.25;
  while (lo > 0.0 && hi / lo > 1.02) {
    const double mid = std::sqrt(lo * hi);
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  cap.qps = lo;
  return cap;
}

hamming::serving::QueryEngineOptions EngineOptions() {
  hamming::serving::QueryEngineOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 64;
  opts.queue_capacity = 1u << 20;
  return opts;
}

Burst RunBurst(QueryEngine* engine, const RequestFn& make,
               uint64_t first_index, uint64_t count) {
  std::vector<std::future<ServeResult>> inflight;
  inflight.reserve(count);
  const auto start = Clock::now();
  for (uint64_t i = 0; i < count; ++i) {
    auto submitted = engine->Submit(make(first_index + i));
    if (submitted.ok()) inflight.push_back(std::move(submitted).ValueOrDie());
  }
  Burst b;
  b.attempted = count;
  for (auto& f : inflight) {
    if (f.get().response.status.ok()) ++b.ok;
  }
  b.per_s = static_cast<double>(b.ok) / Seconds(Clock::now() - start);
  return b;
}

Burst BestBurst(QueryEngine* engine, const RequestFn& make,
                uint64_t first_index, uint64_t count, Tracer* tracer) {
  Burst total;
  std::vector<double> per_s;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const Burst b = RunBurst(engine, make, first_index, count);
    tracer->Add("throughput_burst", t0, Clock::now(), 0, 2);
    total.attempted += b.attempted;
    total.ok += b.ok;
    per_s.push_back(b.per_s);
  }
  total.per_s = *std::max_element(per_s.begin(), per_s.end());
  return total;
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

}  // namespace perfbench
