// The observability layer's contract: log-linear histogram bucketing is
// exact at the edges (with interpolated percentiles inside the pinned
// error bound), shard merges are deterministic under concurrent
// recording, runtime metrics are byte-identical across fault-injection
// retries (wall-clock "time." metrics excluded), the JSON escaper
// round-trips hostile strings through JobEventTrace::ToJson, the trace
// collector emits structurally sound Chrome trace events, and every
// index family fills QueryStats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include "common/sync.h"
#include <vector>

#include "index/dynamic_ha_index.h"
#include "index/linear_scan.h"
#include "index/multi_hash_table.h"
#include "index/static_ha_index.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"
#include "observability/json.h"
#include "observability/memtrack.h"
#include "observability/metrics.h"
#include "observability/query_stats.h"
#include "observability/trace.h"
#include "test_util.h"

namespace hamming::obs {
namespace {

// ---- Histogram bucketing --------------------------------------------------

TEST(Metrics, HistogramBucketEdges) {
  // Values below 4 get exact buckets.
  EXPECT_EQ(HistogramBucketOf(0), 0u);
  EXPECT_EQ(HistogramBucketOf(1), 1u);
  EXPECT_EQ(HistogramBucketOf(2), 2u);
  EXPECT_EQ(HistogramBucketOf(3), 3u);
  // Octave [4, 8) splits into 4 width-1 sub-buckets (still exact).
  EXPECT_EQ(HistogramBucketOf(4), 4u);
  EXPECT_EQ(HistogramBucketOf(7), 7u);
  // Octave [8, 16): width-2 sub-buckets 8-9, 10-11, 12-13, 14-15.
  EXPECT_EQ(HistogramBucketOf(8), 8u);
  EXPECT_EQ(HistogramBucketOf(9), 8u);
  EXPECT_EQ(HistogramBucketOf(10), 9u);
  EXPECT_EQ(HistogramBucketOf(15), 11u);
  EXPECT_EQ(HistogramBucketOf(16), 12u);
  // Top octave [2^63, 2^64).
  EXPECT_EQ(HistogramBucketOf((uint64_t{1} << 63) - 1),
            kHistogramBuckets - 5);
  EXPECT_EQ(HistogramBucketOf(uint64_t{1} << 63), kHistogramBuckets - 4);
  EXPECT_EQ(HistogramBucketOf(std::numeric_limits<uint64_t>::max()),
            kHistogramBuckets - 1);

  EXPECT_EQ(HistogramBucketLowerBound(0), 0u);
  EXPECT_EQ(HistogramBucketLowerBound(1), 1u);
  EXPECT_EQ(HistogramBucketLowerBound(8), 8u);
  EXPECT_EQ(HistogramBucketLowerBound(9), 10u);
  EXPECT_EQ(HistogramBucketLowerBound(kHistogramBuckets - 4),
            uint64_t{1} << 63);
  EXPECT_EQ(HistogramBucketUpperBound(kHistogramBuckets - 1),
            std::numeric_limits<uint64_t>::max());
  // Every bucket's bounds land in their own bucket, buckets tile uint64.
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(HistogramBucketOf(HistogramBucketLowerBound(i)), i) << i;
    EXPECT_EQ(HistogramBucketOf(HistogramBucketUpperBound(i)), i) << i;
    if (i + 1 < kHistogramBuckets) {
      EXPECT_EQ(HistogramBucketUpperBound(i) + 1,
                HistogramBucketLowerBound(i + 1))
          << i;
    }
  }
}

TEST(Metrics, HistogramObserveEdgeValues) {
  MetricsRegistry reg;
  MetricId h = reg.Histogram("edges");
  reg.Observe(h, 0);
  reg.Observe(h, 1);
  reg.Observe(h, std::numeric_limits<uint64_t>::max());
  HistogramSnapshot snap = reg.Snapshot().histograms.at("edges");
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, std::numeric_limits<uint64_t>::max());
  // Sum wraps (mod 2^64): 0 + 1 + max == 0.
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[kHistogramBuckets - 1], 1u);
}

// ---- Interpolated percentiles ---------------------------------------------

TEST(Metrics, PercentileEmptyAndSingleValue) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);

  // A single-valued histogram is exact at every quantile: the estimate
  // interpolates inside the bucket but clamps to [min, max].
  for (uint64_t v : {uint64_t{0}, uint64_t{3}, uint64_t{7}, uint64_t{1000},
                     uint64_t{123456789}}) {
    MetricsRegistry reg;
    MetricId h = reg.Histogram("one");
    for (int i = 0; i < 10; ++i) reg.Observe(h, v);
    HistogramSnapshot snap = reg.Snapshot().histograms.at("one");
    for (double q : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0}) {
      EXPECT_DOUBLE_EQ(snap.Percentile(q), static_cast<double>(v)) << q;
    }
  }
}

TEST(Metrics, PercentileWorstCaseRelativeErrorBound) {
  // The log-linear layout (4 sub-buckets per octave) bounds any
  // bucket's width at 25% of its lower edge, so an interpolated
  // quantile can never be off by more than 25% relative — the bound
  // that makes p99/p999 usable. Pin it against exact quantiles of a
  // deterministic heavy-tailed sample.
  std::vector<uint64_t> values;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Spread across ~5 orders of magnitude, like latency microseconds.
    values.push_back(50 + (x % 1000) * (x % 97) * (x % 11));
  }
  MetricsRegistry reg;
  MetricId h = reg.Histogram("lat");
  for (uint64_t v : values) reg.Observe(h, v);
  HistogramSnapshot snap = reg.Snapshot().histograms.at("lat");

  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const std::size_t rank = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
    const double exact = static_cast<double>(sorted[rank]);
    const double est = snap.Percentile(q);
    const double rel = std::abs(est - exact) / exact;
    EXPECT_LT(rel, 0.25) << "q=" << q << " exact=" << exact
                         << " est=" << est;
  }
  // Quantiles are monotone in q.
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double est = snap.Percentile(q);
    EXPECT_GE(est, prev) << q;
    prev = est;
  }
}

TEST(Metrics, HistogramDeltaWindows) {
  MetricsRegistry reg;
  MetricId h = reg.Histogram("w");
  reg.Observe(h, 8);
  reg.Observe(h, 100);
  HistogramSnapshot before = reg.Snapshot().histograms.at("w");
  reg.Observe(h, 1000);
  reg.Observe(h, 1000);
  reg.Observe(h, 2000);
  HistogramSnapshot after = reg.Snapshot().histograms.at("w");

  HistogramSnapshot win = HistogramSnapshot::Delta(before, after);
  EXPECT_EQ(win.count, 3u);
  EXPECT_EQ(win.sum, 4000u);
  // min/max are bucket-resolution estimates around [1000, 2000].
  EXPECT_LE(win.min, 1000u);
  EXPECT_GT(win.min, 500u);
  EXPECT_GE(win.max, 2000u);
  EXPECT_LE(win.max, 2500u);
  EXPECT_NEAR(win.Percentile(0.5), 1000.0, 250.0);

  // Empty window: nothing recorded between the snapshots.
  HistogramSnapshot none = HistogramSnapshot::Delta(after, after);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.Percentile(0.99), 0.0);
}

TEST(Metrics, CounterGaugeSemantics) {
  MetricsRegistry reg;
  MetricId c = reg.Counter("c");
  MetricId g = reg.Gauge("g");
  // Re-registration returns the same id; kind mismatch does not alias.
  EXPECT_EQ(reg.Counter("c"), c);
  reg.Add(c, 5);
  reg.Add(c, -2);
  reg.Set(g, 10);
  reg.Set(g, 4);  // high-watermark: max wins, not last-write
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3);
  EXPECT_EQ(snap.gauges.at("g"), 10);
}

TEST(Metrics, RegistrationOverflowFallsBackToSink) {
  MetricsRegistry reg;
  for (std::size_t i = 0; i < 2 * kMaxMetricsPerRegistry; ++i) {
    MetricId id = reg.Counter("c" + std::to_string(i));
    EXPECT_LT(id, kMaxMetricsPerRegistry);
  }
  EXPECT_LE(reg.NumMetrics(), kMaxMetricsPerRegistry);
}

TEST(Metrics, RegistrationOverflowIsVisibleInSnapshot) {
  MetricsRegistry reg;
  // Healthy registry: the diagnostics counter is present and zero.
  EXPECT_EQ(reg.Snapshot().counters.at("metrics.registration_overflow"), 0);

  constexpr std::size_t kAttempts = 300;
  for (std::size_t i = 0; i < kAttempts; ++i) {
    reg.Counter("overflow_probe_" + std::to_string(i));
  }
  // 255 slots hold distinct metrics (the 256th is the shared sink); the
  // remaining 45 new-name registrations overflowed — and say so.
  EXPECT_EQ(reg.NumMetrics(), kMaxMetricsPerRegistry - 1);
  const uint64_t expect_overflow = kAttempts - (kMaxMetricsPerRegistry - 1);
  EXPECT_EQ(reg.RegistrationOverflows(), expect_overflow);
  EXPECT_EQ(
      static_cast<uint64_t>(
          reg.Snapshot().counters.at("metrics.registration_overflow")),
      expect_overflow);
  // Re-registering an existing name is not an overflow.
  reg.Counter("overflow_probe_0");
  EXPECT_EQ(reg.RegistrationOverflows(), expect_overflow);
}

// Shard-merge determinism: the snapshot of concurrent recording from T
// threads equals the single-threaded reference, for counters, gauges
// and histograms alike — merging is commutative, so scheduling cannot
// show through.
TEST(Metrics, ShardMergeDeterministicUnderConcurrency) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;

  MetricsRegistry reference;
  MetricId rc = reference.Counter("ops");
  MetricId rg = reference.Gauge("peak");
  MetricId rh = reference.Histogram("latency");
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      reference.Add(rc, 1);
      reference.Set(rg, t * kPerThread + i);
      reference.Observe(rh, static_cast<uint64_t>(i % 257));
    }
  }

  MetricsRegistry reg;
  MetricId c = reg.Counter("ops");
  MetricId g = reg.Gauge("peak");
  MetricId h = reg.Histogram("latency");
  std::vector<hamming::Thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.Add(c, 1);
        reg.Set(g, t * kPerThread + i);
        reg.Observe(h, static_cast<uint64_t>(i % 257));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_TRUE(reg.Snapshot() == reference.Snapshot());
}

TEST(Metrics, SnapshotJsonIsWellFormed) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("a.count"), 7);
  reg.Set(reg.Gauge("b.peak"), 42);
  reg.Observe(reg.Histogram("c.hist"), 9);
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\":7"), std::string::npos);
  EXPECT_NE(json.find("\"skew_max_over_mean\""), std::string::npos);
}

TEST(Metrics, PeakRssGauge) {
  MetricsRegistry reg;
  RecordPeakRss(&reg);
  RecordPeakRss(nullptr);  // must be a safe no-op
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(reg.Snapshot().gauges.at("process.peak_rss_bytes"), 0);
#endif
}

// ---- Runtime metrics across retries ---------------------------------------

namespace mr = hamming::mr;

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

mr::JobSpec WordCountSpec() {
  mr::JobSpec spec;
  spec.name = "obs-wordcount";
  std::vector<mr::Record> input;
  for (int i = 0; i < 200; ++i) {
    input.push_back({{}, Bytes("w" + std::to_string(i % 17))});
  }
  spec.input_splits = mr::SplitEvenly(std::move(input), 4);
  spec.map_fn = [](const mr::Record& rec, mr::Emitter* out) -> Status {
    out->Emit(rec.value, Bytes("1"));
    return Status::OK();
  };
  spec.reduce_fn = [](const std::vector<uint8_t>& key,
                      const std::vector<std::vector<uint8_t>>& values,
                      mr::Emitter* out) -> Status {
    out->Emit(key, Bytes(std::to_string(values.size())));
    return Status::OK();
  };
  spec.options.num_reducers = 3;
  return spec;
}

// Drops the wall-clock ("time.*") histograms, which legitimately differ
// run to run; everything else the runtime records must be identical.
MetricsSnapshot WithoutTimings(MetricsSnapshot snap) {
  for (auto it = snap.histograms.begin(); it != snap.histograms.end();) {
    if (it->first.rfind("time.", 0) == 0) {
      it = snap.histograms.erase(it);
    } else {
      ++it;
    }
  }
  return snap;
}

TEST(Metrics, RuntimeMetricsIdenticalAcrossFaultRetries) {
  MetricsRegistry clean;
  {
    mr::Cluster cluster({4, 2, 0});
    mr::JobSpec spec = WordCountSpec();
    spec.options.metrics = &clean;
    ASSERT_TRUE(RunJob(spec, &cluster).ok());
  }
  MetricsRegistry faulty;
  {
    mr::Cluster cluster({4, 2, 0});
    mr::JobSpec spec = WordCountSpec();
    spec.options.metrics = &faulty;
    spec.options.max_attempts = 8;
    spec.options.speculation.enabled = true;
    spec.options.speculation.slow_attempt_seconds = 0.02;
    mr::RandomFaultOptions f;
    f.failure_probability = 0.3;
    f.straggler_probability = 0.2;
    f.straggler_delay_seconds = 0.05;
    spec.options.fault = std::make_shared<mr::RandomFaultInjector>(f);
    ASSERT_TRUE(RunJob(spec, &cluster).ok());
  }
  EXPECT_TRUE(WithoutTimings(clean.Snapshot()) ==
              WithoutTimings(faulty.Snapshot()));
}

TEST(Metrics, ReducerLoadReportMatchesHistogram) {
  MetricsRegistry reg;
  mr::Cluster cluster({4, 2, 0});
  mr::JobSpec spec = WordCountSpec();
  spec.options.metrics = &reg;
  auto result = RunJob(spec, &cluster);
  ASSERT_TRUE(result.ok());
  const mr::ReducerLoadReport& load = result->reducer_load;
  ASSERT_EQ(load.records.size(), 3u);
  uint64_t total = 0, max = 0;
  for (uint64_t r : load.records) {
    total += r;
    max = std::max(max, r);
  }
  HistogramSnapshot hist =
      reg.Snapshot().histograms.at("mr.reduce_input_records");
  EXPECT_EQ(hist.count, 3u);
  EXPECT_EQ(hist.sum, total);
  EXPECT_EQ(hist.max, max);
  EXPECT_DOUBLE_EQ(hist.SkewMaxOverMean(), load.records_skew);
  // 17 distinct keys over 3 hash-routed reducers: every reducer sees
  // at least one key, and the skew coefficient is >= 1 by definition.
  EXPECT_GE(load.records_skew, 1.0);
}

// External shuffle path: per-reducer load must come out the same whether
// the shuffle ran in memory or through spill files.
TEST(Metrics, ReducerLoadIdenticalAcrossShufflePaths) {
  auto run = [](std::size_t budget) {
    mr::Cluster cluster({4, 2, 0});
    mr::JobSpec spec = WordCountSpec();
    spec.options.shuffle_memory_bytes = budget;
    auto result = RunJob(spec, &cluster);
    EXPECT_TRUE(result.ok());
    return result->reducer_load;
  };
  mr::ReducerLoadReport in_memory = run(mr::kUnlimitedShuffleMemory);
  mr::ReducerLoadReport spilled = run(256);  // force spills + merge
  EXPECT_EQ(in_memory.records, spilled.records);
  EXPECT_EQ(in_memory.bytes, spilled.bytes);
  EXPECT_DOUBLE_EQ(in_memory.records_skew, spilled.records_skew);
}

// ---- JSON escaping --------------------------------------------------------

TEST(ObsJson, EscapeRoundTripsHostileStrings) {
  const std::string cases[] = {
      "",
      "plain",
      "quote\" backslash\\ slash/",
      "newline\n tab\t return\r backspace\b formfeed\f",
      std::string("embedded\0nul", 12),
      "\x01\x02\x1f\x7f",     // control chars incl. DEL (DEL passes raw)
      "utf-8 \xc3\xa9\xe2\x82\xac",  // é €
  };
  for (const std::string& s : cases) {
    std::string literal = JsonEscaped(s);
    std::string back;
    ASSERT_TRUE(JsonUnescape(literal, &back)) << literal;
    EXPECT_EQ(back, s);
    // No raw control characters may survive in the literal.
    for (char ch : literal) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
    }
  }
}

// Regression for the JobEventTrace export: event details carrying
// quotes, backslashes and control characters (injected-fault statuses,
// spill paths) must round-trip through ToJson.
TEST(ObsJson, JobEventTraceEscapesDetails) {
  const std::string hostile = "fault \"quoted\" C:\\spill\r\npath\x01";
  mr::JobEventTrace trace;
  mr::JobEvent event;
  event.type = mr::JobEventType::kAttemptFail;
  event.kind = mr::TaskKind::kMap;
  event.task = 0;
  event.attempt = 1;
  event.detail = hostile;
  trace.Append(event);
  std::string json = trace.ToJson();

  // Extract the detail literal and unescape it.
  const std::string key = "\"detail\": ";
  auto pos = json.find(key);
  ASSERT_NE(pos, std::string::npos) << json;
  pos += key.size();
  ASSERT_EQ(json[pos], '"');
  std::size_t end = pos + 1;
  while (end < json.size() && (json[end] != '"' || json[end - 1] == '\\')) {
    ++end;
  }
  ASSERT_LT(end, json.size());
  std::string back;
  ASSERT_TRUE(JsonUnescape(json.substr(pos, end - pos + 1), &back));
  EXPECT_EQ(back, hostile);
  // And nothing between the braces may be a raw control character.
  for (char ch : json) {
    if (ch == '\n') continue;  // the exporter's own pretty-printing
    EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
  }
}

TEST(ObsJson, WriterNestingAndEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.Key("list");
  w.BeginArray();
  w.Int(-1);
  w.Uint(std::numeric_limits<uint64_t>::max());
  w.Double(0.5);
  w.Double(std::numeric_limits<double>::infinity());  // -> null
  w.Bool(true);
  w.String("a\"b");
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"list\":[-1,18446744073709551615,0.5,null,true,"
            "\"a\\\"b\"]}");
}

// ---- Trace collector ------------------------------------------------------

TEST(TraceJson, TracedJobEmitsSpansPerNode) {
  constexpr std::size_t kNodes = 2;
  mr::Cluster cluster({kNodes, 2, 0});
  TraceCollector tracer({kNodes});
  mr::JobSpec spec = WordCountSpec();
  spec.options.observer = &tracer;
  tracer.BeginJob("traced");
  ASSERT_TRUE(RunJob(spec, &cluster).ok());
  EXPECT_GT(tracer.size(), 0u);

  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);   // spans
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);   // metadata
  EXPECT_NE(json.find("\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"node-0\""), std::string::npos);
  EXPECT_NE(json.find("\"node-1\""), std::string::npos);
  // 4 map tasks on 2 nodes: both node processes must carry spans.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
}

TEST(TraceJson, MultiJobTimelineRebasesMonotonically) {
  mr::JobEventTrace first, second;
  auto phase = [](mr::JobEventType type, const char* name, double t,
                  double d) {
    mr::JobEvent e;
    e.type = type;
    e.detail = name;
    e.time_seconds = t;
    e.duration_seconds = d;
    return e;
  };
  first.Append(phase(mr::JobEventType::kPhaseStart, "map", 0.0, 0.0));
  first.Append(phase(mr::JobEventType::kPhaseFinish, "map", 1.0, 1.0));
  second.Append(phase(mr::JobEventType::kPhaseStart, "map", 0.0, 0.0));
  second.Append(phase(mr::JobEventType::kPhaseFinish, "map", 0.5, 0.5));

  TraceCollector tracer({1});
  tracer.AddJobTrace(first, "job-a");
  tracer.AddJobTrace(second, "job-b");
  std::string json = tracer.ToChromeJson();
  // Both jobs appear, and the second job's map phase starts at or after
  // the first job's end (1.0 s = 1e6 us).
  EXPECT_NE(json.find("\"job-a\""), std::string::npos);
  EXPECT_NE(json.find("\"job-b\""), std::string::npos);
  auto first_end = json.find("\"job-b\"");
  auto ts_pos = json.find("\"ts\":", first_end);
  ASSERT_NE(ts_pos, std::string::npos);
  EXPECT_GE(std::stod(json.substr(ts_pos + 5)), 1e6);
}

// ---- QueryStats through the index layer -----------------------------------

std::vector<BinaryCode> SmallCodes() {
  std::vector<BinaryCode> codes;
  for (uint64_t v : {0x0ull, 0x1ull, 0x3ull, 0x7ull, 0xffull, 0xf0f0ull,
                     0x1234ull, 0xffffull}) {
    BinaryCode c(32);
    for (std::size_t b = 0; b < 32; ++b) c.SetBit(b, (v >> b) & 1);
    codes.push_back(c);
  }
  return codes;
}

TEST(QueryStats, LinearScanCountsEveryRow) {
  LinearScanIndex index;
  auto codes = SmallCodes();
  ASSERT_TRUE(index.Build(codes).ok());
  QueryStats stats;
  auto got = testutil::Search(index, codes[0], 1, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.candidates_generated, codes.size());
  EXPECT_EQ(stats.exact_distance_computations, codes.size());
  EXPECT_EQ(stats.kernel_batch_calls, 1u);
  EXPECT_EQ(stats.results, got->size());
  EXPECT_GT(stats.results, 0u);
}

TEST(QueryStats, IndexFamiliesFillStats) {
  auto codes = SmallCodes();
  QueryStats null_stats;

  MultiHashTableIndex mh(4);
  ASSERT_TRUE(mh.Build(codes).ok());
  QueryStats mh_stats;
  ASSERT_TRUE(testutil::Search(mh, codes[1], 2, &mh_stats).ok());
  EXPECT_GT(mh_stats.signatures_enumerated, 0u);

  StaticHAIndex sha(StaticHAIndexOptions{8});
  ASSERT_TRUE(sha.Build(codes).ok());
  QueryStats sha_stats;
  ASSERT_TRUE(testutil::Search(sha, codes[1], 2, &sha_stats).ok());
  EXPECT_GT(sha_stats.signatures_enumerated, 0u);
  EXPECT_GT(sha_stats.kernel_batch_calls, 0u);

  DynamicHAIndex dha;
  ASSERT_TRUE(dha.Build(codes).ok());
  QueryStats dha_stats;
  auto got = testutil::Search(dha, codes[1], 2, &dha_stats);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(dha_stats.signatures_enumerated, 0u);
  EXPECT_EQ(dha_stats.results, got->size());

  // Null stats pointer: same results, no crash.
  auto no_stats = testutil::Search(dha, codes[1], 2, nullptr);
  ASSERT_TRUE(no_stats.ok());
  EXPECT_EQ(*no_stats, *got);
  (void)null_stats;
}

TEST(QueryStats, KnnRecordsRadiusExpansions) {
  LinearScanIndex index;
  auto codes = SmallCodes();
  ASSERT_TRUE(index.Build(codes).ok());
  QueryStats stats;
  auto got = testutil::Knn(index, codes[0], 3, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 3u);
  EXPECT_EQ(stats.results, 3u);
}

TEST(QueryStats, HistogramsRecordPerQuerySamples) {
  MetricsRegistry reg;
  QueryStatsHistograms hists = QueryStatsHistograms::Register(&reg);
  QueryStats a, b;
  a.candidates_generated = 10;
  a.results = 2;
  b.candidates_generated = 100;
  b.results = 0;
  hists.Observe(&reg, a);
  hists.Observe(&reg, b);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.histograms.at("query.candidates").count, 2u);
  EXPECT_EQ(snap.histograms.at("query.candidates").sum, 110u);
  EXPECT_EQ(snap.histograms.at("query.results").max, 2u);
  // Null registry: Register and Observe are safe no-ops.
  QueryStatsHistograms none = QueryStatsHistograms::Register(nullptr);
  none.Observe(nullptr, a);
}

TEST(QueryStats, AccumulateAndJson) {
  QueryStats a, b;
  a.candidates_generated = 3;
  a.kernel_batch_calls = 1;
  b.candidates_generated = 4;
  b.radius_expansions = 2;
  a += b;
  EXPECT_EQ(a.candidates_generated, 7u);
  EXPECT_EQ(a.radius_expansions, 2u);
  EXPECT_NE(a.ToJson().find("\"candidates_generated\":7"),
            std::string::npos);
}

}  // namespace
}  // namespace hamming::obs
