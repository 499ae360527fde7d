// Google-benchmark microbenchmarks of the primitives the paper's cost
// model is built on: XOR+popcount distance, Gray rank, batched kernel
// scans, and H-Search across index implementations.
//
// The custom main() additionally times the batched kernels against the
// scalar BinaryCode loop, Spectral Hashing per row, the vertical scan
// alone and in shared batches, and a map-heavy MapReduce job with and
// without a live metrics registry, and writes the results, with the host
// they ran on, to BENCH_micro.json.
// Pass --json_only to skip the google-benchmark suite, --json_out=PATH to
// redirect the file.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>

#include "bench_common.h"
#include "code/gray.h"
#include "common/rng.h"
#include "common/sync.h"
#include "dataset/generators.h"
#include "hashing/spectral_hashing.h"
#include "observability/stopwatch.h"
#include "index/dynamic_ha_index.h"
#include "index/hengine.h"
#include "index/linear_scan.h"
#include "index/multi_hash_table.h"
#include "index/radix_tree.h"
#include "index/static_ha_index.h"
#include "kernels/code_store.h"
#include "kernels/hamming_kernels.h"
#include "kernels/vertical_code_store.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"
#include "observability/metrics.h"

namespace hamming {
namespace {

std::vector<BinaryCode> MakeCodes(std::size_t n, std::size_t bits,
                                  std::size_t clusters) {
  Rng rng(42);
  std::vector<BinaryCode> centers;
  for (std::size_t c = 0; c < clusters; ++c) {
    BinaryCode code(bits);
    for (std::size_t b = 0; b < bits; ++b) code.SetBit(b, rng.Bernoulli(0.5));
    centers.push_back(code);
  }
  std::vector<BinaryCode> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    BinaryCode code = centers[i % clusters];
    for (int f = 0; f < 3; ++f) {
      code.FlipBit(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bits) - 1)));
    }
    out.push_back(code);
  }
  return out;
}

void BM_HammingDistance(benchmark::State& state) {
  auto codes = MakeCodes(2, static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codes[0].Distance(codes[1]));
  }
}
BENCHMARK(BM_HammingDistance)->Arg(32)->Arg(64)->Arg(128)->Arg(512);

void BM_WithinDistanceEarlyExit(benchmark::State& state) {
  auto codes = MakeCodes(2, 512, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codes[0].WithinDistance(codes[1], 3));
  }
}
BENCHMARK(BM_WithinDistanceEarlyExit);

void BM_GrayRank(benchmark::State& state) {
  auto codes = MakeCodes(1, static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GrayRank(codes[0]));
  }
}
BENCHMARK(BM_GrayRank)->Arg(32)->Arg(512);

// ---- Batched kernel benchmarks (ns/code = time / items) -----------------

void BM_KernelScalarScan(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  auto codes = MakeCodes(4096, bits, 16);
  auto query = MakeCodes(1, bits, 1)[0];
  std::vector<uint32_t> dists(codes.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < codes.size(); ++i) {
      dists[i] = static_cast<uint32_t>(codes[i].Distance(query));
    }
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(codes.size()));
}
BENCHMARK(BM_KernelScalarScan)->Arg(64)->Arg(128)->Arg(225)->Arg(512);

void BM_KernelBatchDistance(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  auto codes = MakeCodes(4096, bits, 16);
  auto store = kernels::CodeStore::FromCodes(codes).ValueOrDie();
  auto query = MakeCodes(1, bits, 1)[0];
  std::vector<uint32_t> dists(store.size());
  for (auto _ : state) {
    kernels::BatchDistance(query, store, dists.data());
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(store.size()));
}
BENCHMARK(BM_KernelBatchDistance)->Arg(64)->Arg(128)->Arg(225)->Arg(512);

void BM_KernelBatchKnn(benchmark::State& state) {
  auto codes = MakeCodes(65536, 64, 64);
  auto store = kernels::CodeStore::FromCodes(codes).ValueOrDie();
  auto query = MakeCodes(1, 64, 1)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::BatchKnn(query, store, 10));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(store.size()));
}
BENCHMARK(BM_KernelBatchKnn);

template <typename MakeIndex>
void SearchBench(benchmark::State& state, MakeIndex make) {
  auto codes = MakeCodes(static_cast<std::size_t>(state.range(0)), 32, 32);
  auto index = make();
  if (!index->Build(codes).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  Rng rng(7);
  std::size_t qi = 0;
  QueryResponse resp;
  for (auto _ : state) {
    QueryRequest req = QueryRequest::Range(codes[qi % codes.size()], 3);
    benchmark::DoNotOptimize(index->SearchBatch({&req, 1}, {&resp, 1}));
    benchmark::DoNotOptimize(resp.ids.data());
    qi += 97;
  }
}

void BM_SearchLinear(benchmark::State& state) {
  SearchBench(state, [] { return std::make_unique<LinearScanIndex>(); });
}
void BM_SearchMh4(benchmark::State& state) {
  SearchBench(state, [] { return std::make_unique<MultiHashTableIndex>(4); });
}
void BM_SearchHEngine(benchmark::State& state) {
  SearchBench(state, [] { return std::make_unique<HEngineIndex>(4); });
}
void BM_SearchRadix(benchmark::State& state) {
  SearchBench(state, [] { return std::make_unique<RadixTreeIndex>(); });
}
void BM_SearchSha(benchmark::State& state) {
  SearchBench(state,
              [] { return std::make_unique<StaticHAIndex>(); });
}
void BM_SearchDha(benchmark::State& state) {
  SearchBench(state, [] { return std::make_unique<DynamicHAIndex>(); });
}
BENCHMARK(BM_SearchLinear)->Arg(10000)->Arg(50000);
BENCHMARK(BM_SearchMh4)->Arg(10000)->Arg(50000);
BENCHMARK(BM_SearchHEngine)->Arg(10000)->Arg(50000);
BENCHMARK(BM_SearchRadix)->Arg(10000)->Arg(50000);
BENCHMARK(BM_SearchSha)->Arg(10000)->Arg(50000);
BENCHMARK(BM_SearchDha)->Arg(10000)->Arg(50000);

void BM_DhaBuild(benchmark::State& state) {
  auto codes = MakeCodes(static_cast<std::size_t>(state.range(0)), 32, 32);
  for (auto _ : state) {
    DynamicHAIndex index;
    benchmark::DoNotOptimize(index.Build(codes));
  }
}
BENCHMARK(BM_DhaBuild)->Arg(10000)->Unit(benchmark::kMillisecond);

// ---- BENCH_micro.json emitter -------------------------------------------

// Times `pass` (which processes `items` codes/records) repeatedly until
// ~0.15 s of wall clock, returning ns per item.
double TimeNsPerItem(const std::function<void()>& pass, std::size_t items) {
  obs::Stopwatch warm;
  pass();
  double once = warm.ElapsedSeconds();
  int reps = static_cast<int>(0.15 / std::max(once, 1e-6)) + 1;
  obs::Stopwatch watch;
  for (int r = 0; r < reps; ++r) pass();
  double secs = watch.ElapsedSeconds();
  return secs * 1e9 / (static_cast<double>(reps) * static_cast<double>(items));
}

struct KernelRow {
  std::size_t bits;
  std::size_t n;
  double scalar_ns_per_code;
  double batched_ns_per_code;
};

KernelRow MeasureKernel(std::size_t bits) {
  const std::size_t n = 65536;
  auto codes = MakeCodes(n, bits, 64);
  auto store = kernels::CodeStore::FromCodes(codes).ValueOrDie();
  auto query = MakeCodes(1, bits, 1)[0];
  std::vector<uint32_t> dists(n);
  KernelRow row{bits, n, 0, 0};
  row.scalar_ns_per_code = TimeNsPerItem(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          dists[i] = static_cast<uint32_t>(codes[i].Distance(query));
        }
        benchmark::DoNotOptimize(dists.data());
      },
      n);
  row.batched_ns_per_code = TimeNsPerItem(
      [&] {
        kernels::BatchDistance(query, store, dists.data());
        benchmark::DoNotOptimize(dists.data());
      },
      n);
  return row;
}

struct HashingRow {
  std::size_t dim = 0;
  std::size_t bits = 0;
  std::size_t rows = 0;
  double train_s = 0;
  double ns_per_row = 0;
};

// SpectralHashing::Hash, the per-record work of the MRHA and PMH map
// phases, over generator rows: Flickr's at 512-d, NUS-WIDE's at 225-d and
// cut to their first 64 coordinates (the repository benchmark's width).
// The model trains on the first 500 rows.
HashingRow MeasureHashing(std::size_t dim, std::size_t bits) {
  const std::size_t n = 4096;
  const FloatMatrix full = GenerateDataset(
      dim > 225 ? DatasetKind::kFlickr : DatasetKind::kNusWide, n);
  FloatMatrix data(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < dim; ++k) data.At(i, k) = full.At(i, k);
  }
  std::vector<std::size_t> sample_ids(500);
  std::iota(sample_ids.begin(), sample_ids.end(), 0);
  SpectralHashingOptions opts;
  opts.code_bits = bits;
  HashingRow row{dim, bits, n, 0, 0};
  obs::Stopwatch train;
  auto model =
      SpectralHashing::Train(data.GatherRows(sample_ids), opts).ValueOrDie();
  row.train_s = train.ElapsedSeconds();
  uint64_t sink = 0;
  row.ns_per_row = TimeNsPerItem(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          sink += model->Hash(data.Row(i)).words()[0];
        }
        benchmark::DoNotOptimize(sink);
      },
      n);
  return row;
}

// Uniform random codes plus a handful of planted near-neighbors of the
// returned query. Uniform data is the honest workload for plane-pruning
// benchmarks: the clustered MakeCodes generator puts a third of the
// store within a few bits of any member, which (deliberately) defeats
// block pruning; real fingerprint collections behave like the uniform
// case at small r.
BinaryCode MakeUniformWithNeighbors(std::size_t n, std::size_t bits,
                                    std::vector<BinaryCode>* out) {
  Rng rng(1234);
  out->clear();
  out->reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    BinaryCode code(bits);
    for (std::size_t b = 0; b < bits; ++b) {
      code.SetBit(b, rng.Bernoulli(0.5));
    }
    out->push_back(code);
  }
  BinaryCode query(bits);
  for (std::size_t b = 0; b < bits; ++b) {
    query.SetBit(b, rng.Bernoulli(0.5));
  }
  // Plant ~128 neighbors within distance 2 so small-r scans return a
  // realistic nonzero result set instead of an empty one.
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 128); ++i) {
    std::size_t slot = (i * 7919) % n;
    BinaryCode neighbor = query;
    neighbor.FlipBit(static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bits) - 1)));
    neighbor.FlipBit(static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bits) - 1)));
    (*out)[slot] = neighbor;
  }
  return query;
}

struct VerticalRow {
  std::size_t bits = 0;
  std::size_t n = 0;
  std::size_t r = 0;
  double horizontal_ns_per_code = 0;
  double vertical_ns_per_code = 0;
  double speedup = 0;
  double planes_scanned_frac = 0;  // planes read / (blocks * bits)
  double blocks_pruned_frac = 0;   // blocks pruned before the last plane
  std::size_t matches = 0;
};

// Horizontal vs vertical threshold scan over the same store. Both sides
// go through the public batch entry points, so the horizontal number is
// the active backend's word-stride kernel and the vertical number is
// the bit-plane kernel with per-block pruning.
VerticalRow MeasureVertical(std::size_t bits, std::size_t r, std::size_t n) {
  std::vector<BinaryCode> codes;
  const BinaryCode query = MakeUniformWithNeighbors(n, bits, &codes);
  auto store = kernels::CodeStore::FromCodes(codes).ValueOrDie();
  kernels::VerticalCodeStore vstore;
  vstore.AssignTransposed(store);

  VerticalRow row;
  row.bits = bits;
  row.n = n;
  row.r = r;
  std::vector<uint32_t> slots;
  row.horizontal_ns_per_code = TimeNsPerItem(
      [&] {
        slots.clear();
        kernels::BatchWithinDistance(query, store, r, &slots);
        benchmark::DoNotOptimize(slots.data());
      },
      n);
  kernels::VerticalScanStats stats;
  row.vertical_ns_per_code = TimeNsPerItem(
      [&] {
        slots.clear();
        kernels::BatchWithinDistance(query, vstore, r, &slots, &stats);
        benchmark::DoNotOptimize(slots.data());
      },
      n);
  row.matches = slots.size();
  row.speedup = row.horizontal_ns_per_code / row.vertical_ns_per_code;
  if (stats.blocks_scanned > 0) {
    const double denom =
        static_cast<double>(stats.blocks_scanned) * static_cast<double>(bits);
    row.planes_scanned_frac = static_cast<double>(stats.planes_scanned) / denom;
    row.blocks_pruned_frac = static_cast<double>(stats.blocks_pruned) /
                             static_cast<double>(stats.blocks_scanned);
  }
  return row;
}

struct VerticalMultiRow {
  std::string store;  // "arrival" (raw kernel) or "prefix" (LinearScan)
  std::size_t bits = 0;
  std::size_t n = 0;
  std::size_t r = 0;
  std::size_t batch = 0;
  double us_per_query = 0;
  double planes_scanned_frac = 0;
  double blocks_skipped_frac = 0;
};

// The vertical scan over shared batches: kMultiQueries plane-routed
// queries (stored codes with two bits flipped) at radius r, sent in
// batches of `batch` over 2^20 clustered codes. Every batch size answers
// the same queries, so the rows differ only in how many queries share
// each pass over the planes.
constexpr std::size_t kMultiQueries = 64;
constexpr std::size_t kMultiBatches[] = {1, 4, 16, 64};

std::vector<BinaryCode> MultiQueries(const std::vector<BinaryCode>& codes,
                                     std::size_t bits) {
  Rng rng(7);
  std::vector<BinaryCode> queries;
  for (std::size_t q = 0; q < kMultiQueries; ++q) {
    BinaryCode code = codes[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(codes.size()) - 1))];
    for (int f = 0; f < 2; ++f) {
      code.FlipBit(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bits) - 1)));
    }
    queries.push_back(code);
  }
  return queries;
}

// The raw multi-query kernel over a store transposed in arrival order,
// where the clusters interleave and the common-bit summaries rarely
// rule a group out.
std::vector<VerticalMultiRow> MeasureVerticalMulti(std::size_t bits,
                                                   std::size_t r) {
  const std::size_t n = std::size_t{1} << 20;
  const auto codes = MakeCodes(n, bits, 16384);
  auto store = kernels::CodeStore::FromCodes(codes).ValueOrDie();
  kernels::VerticalCodeStore vstore;
  vstore.AssignTransposed(store);
  const std::vector<BinaryCode> queries = MultiQueries(codes, bits);
  std::vector<std::vector<uint32_t>> slots(kMultiQueries);
  std::vector<kernels::VerticalScanStats> stats(kMultiQueries);
  std::vector<kernels::VerticalQuery> scans;
  for (std::size_t q = 0; q < kMultiQueries; ++q) {
    scans.push_back({&queries[q], r, &slots[q], &stats[q]});
  }
  std::vector<VerticalMultiRow> rows;
  for (std::size_t batch : kMultiBatches) {
    VerticalMultiRow row;
    row.store = "arrival";
    row.bits = bits;
    row.n = n;
    row.r = r;
    row.batch = batch;
    const double ns_per_query = TimeNsPerItem(
        [&] {
          for (auto& s : slots) s.clear();
          for (std::size_t q = 0; q < kMultiQueries; q += batch) {
            kernels::MultiWithinDistance(vstore, scans.data() + q, batch);
          }
          benchmark::DoNotOptimize(slots.data());
        },
        kMultiQueries);
    row.us_per_query = ns_per_query / 1e3;
    uint64_t planes = 0;
    uint64_t skipped = 0;
    uint64_t blocks = 0;
    for (const auto& st : stats) {
      planes += st.planes_scanned;
      skipped += st.blocks_skipped;
      blocks += st.blocks_scanned;
    }
    row.planes_scanned_frac =
        static_cast<double>(planes) /
        (static_cast<double>(blocks) * static_cast<double>(bits));
    row.blocks_skipped_frac =
        static_cast<double>(skipped) / static_cast<double>(blocks);
    for (auto& st : stats) st = kernels::VerticalScanStats{};
    rows.push_back(row);
  }
  return rows;
}

// The same batches through LinearScanIndex::SearchBatch, whose Build
// lays the codes out in prefix order: neighbouring lanes share their
// leading bits, so the summaries skip most blocks before a plane row is
// read. The counters come from the last pass's responses.
std::vector<VerticalMultiRow> MeasureScanMulti(std::size_t bits,
                                               std::size_t r) {
  const std::size_t n = std::size_t{1} << 20;
  const auto codes = MakeCodes(n, bits, 16384);
  LinearScanIndex index;
  if (!index.Build(codes).ok()) return {};
  const std::size_t blocks = (n + kernels::VerticalCodeStore::kBlockCodes -
                              1) / kernels::VerticalCodeStore::kBlockCodes;
  std::vector<QueryRequest> requests;
  for (const BinaryCode& q : MultiQueries(codes, bits)) {
    requests.push_back(QueryRequest::Range(q, r));
  }
  std::vector<QueryResponse> responses(kMultiQueries);
  std::vector<VerticalMultiRow> rows;
  for (std::size_t batch : kMultiBatches) {
    VerticalMultiRow row;
    row.store = "prefix";
    row.bits = bits;
    row.n = n;
    row.r = r;
    row.batch = batch;
    const double ns_per_query = TimeNsPerItem(
        [&] {
          for (std::size_t q = 0; q < kMultiQueries; q += batch) {
            // Spans match by construction; the answers are the sink.
            (void)index.SearchBatch({requests.data() + q, batch},
                                    {responses.data() + q, batch});
          }
          benchmark::DoNotOptimize(responses.data());
        },
        kMultiQueries);
    row.us_per_query = ns_per_query / 1e3;
    uint64_t planes = 0;
    uint64_t skipped = 0;
    for (const QueryResponse& resp : responses) {
      planes += resp.stats.planes_scanned;
      skipped += resp.stats.blocks_skipped;
    }
    const double scanned =
        static_cast<double>(blocks) * static_cast<double>(kMultiQueries);
    row.planes_scanned_frac =
        static_cast<double>(planes) / (scanned * static_cast<double>(bits));
    row.blocks_skipped_frac = static_cast<double>(skipped) / scanned;
    rows.push_back(row);
  }
  return rows;
}

struct MapJobRow {
  std::size_t records = 0;
  std::size_t shuffle_records = 0;
  double batched_map_seconds = 0;
  double metered_map_seconds = 0;  // batched counters + metrics registry
  double batched_shuffle_seconds = 0;
};

MapJobRow MeasureMapJob() {
  // A map-heavy job: trivial identity mapper over many small records, so
  // per-record runner overhead (the counter accounting) dominates.
  const std::size_t kRecords = 200000;
  Rng rng(9);
  std::vector<mr::Record> records(kRecords);
  for (auto& rec : records) {
    rec.key.resize(8);
    for (auto& b : rec.key) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  mr::JobSpec spec;
  spec.name = "bench-map-heavy";
  spec.input_splits = mr::SplitEvenly(std::move(records), 16);
  spec.map_fn = [](const mr::Record& rec, mr::Emitter* emitter) {
    emitter->Emit(rec.key, rec.value);
    return Status::OK();
  };
  spec.options.num_reducers = 4;

  MapJobRow row;
  row.records = kRecords;
  row.shuffle_records = kRecords;
  obs::MetricsRegistry metrics;
  // Alternate modes, keep each mode's best of three (first runs warm the
  // allocator and page cache). The metered mode runs with a live metrics
  // registry attached — the measured cost of the observability layer on
  // the map-heavy hot path (compare against a -DHAMMING_DISABLE_METRICS
  // build for the compile-out baseline).
  for (int round = 0; round < 3; ++round) {
    for (bool metered : {false, true}) {
      mr::Cluster cluster;
      spec.options.metrics = metered ? &metrics : nullptr;
      auto result = mr::RunJob(spec, &cluster);
      if (!result.ok()) continue;
      double& map_best =
          metered ? row.metered_map_seconds : row.batched_map_seconds;
      if (map_best == 0 || result->map_seconds < map_best) {
        map_best = result->map_seconds;
      }
      if (!metered && (row.batched_shuffle_seconds == 0 ||
                       result->shuffle_seconds < row.batched_shuffle_seconds)) {
        row.batched_shuffle_seconds = result->shuffle_seconds;
      }
    }
  }
  return row;
}

int EmitJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  // The host every number below was measured on.
  std::fprintf(f, "{\n  \"host\": %s,\n", bench::HostJson().c_str());
  std::fprintf(f, "  \"kernels\": [\n");
  const std::size_t kBits[] = {64, 128, 225, 512};
  for (std::size_t i = 0; i < 4; ++i) {
    KernelRow row = MeasureKernel(kBits[i]);
    double speedup = row.scalar_ns_per_code / row.batched_ns_per_code;
    std::fprintf(f,
                 "    {\"bits\": %zu, \"codes\": %zu, "
                 "\"scalar_ns_per_code\": %.3f, "
                 "\"batched_ns_per_code\": %.3f, "
                 "\"batched_codes_per_sec\": %.3e, "
                 "\"speedup\": %.2f}%s\n",
                 row.bits, row.n, row.scalar_ns_per_code,
                 row.batched_ns_per_code, 1e9 / row.batched_ns_per_code,
                 speedup, i + 1 < 4 ? "," : "");
    std::fprintf(stderr, "kernel %3zu-bit: scalar %.2f ns/code, batched "
                 "%.2f ns/code (%.2fx)\n",
                 row.bits, row.scalar_ns_per_code, row.batched_ns_per_code,
                 speedup);
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"hashing\": [\n");
  {
    const std::size_t kDims[] = {64, 225, 512};
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t bits : {32, 64}) {
        const HashingRow row = MeasureHashing(kDims[i], bits);
        std::fprintf(f,
                     "    {\"dim\": %zu, \"bits\": %zu, \"rows\": %zu, "
                     "\"train_s\": %.3f, \"ns_per_row\": %.1f}%s\n",
                     row.dim, row.bits, row.rows, row.train_s,
                     row.ns_per_row, i + 1 < 3 || bits == 32 ? "," : "");
        std::fprintf(stderr,
                     "hashing %3zu-d %2zu-bit: %.1f ns/row (train %.2fs)\n",
                     row.dim, row.bits, row.ns_per_row, row.train_s);
      }
    }
  }
  std::fprintf(f, "  ],\n");
  // Vertical (bit-plane) vs horizontal threshold scans. The acceptance
  // grid covers the selective radii the layout heuristic targets; the
  // r-sweep at 128 bits charts the crossover where pruning stops paying.
  std::fprintf(f, "  \"vertical_kernels\": [\n");
  {
    const std::size_t kN = std::size_t{1} << 20;
    struct { std::size_t bits, r; } grid[] = {
        {64, 2}, {64, 8}, {128, 2}, {128, 8}, {256, 2}, {256, 8}};
    const std::size_t kGrid = sizeof(grid) / sizeof(grid[0]);
    for (std::size_t i = 0; i < kGrid; ++i) {
      VerticalRow row = MeasureVertical(grid[i].bits, grid[i].r, kN);
      std::fprintf(f,
                   "    {\"bits\": %zu, \"codes\": %zu, \"r\": %zu, "
                   "\"horizontal_ns_per_code\": %.4f, "
                   "\"vertical_ns_per_code\": %.4f, "
                   "\"speedup\": %.2f, "
                   "\"planes_scanned_frac\": %.4f, "
                   "\"blocks_pruned_frac\": %.4f, "
                   "\"matches\": %zu}%s\n",
                   row.bits, row.n, row.r, row.horizontal_ns_per_code,
                   row.vertical_ns_per_code, row.speedup,
                   row.planes_scanned_frac, row.blocks_pruned_frac,
                   row.matches, i + 1 < kGrid ? "," : "");
      std::fprintf(stderr,
                   "vertical %3zu-bit r=%-2zu: horizontal %.3f ns/code, "
                   "vertical %.3f ns/code (%.2fx), planes %.1f%%, pruned "
                   "%.1f%%\n",
                   row.bits, row.r, row.horizontal_ns_per_code,
                   row.vertical_ns_per_code, row.speedup,
                   row.planes_scanned_frac * 100, row.blocks_pruned_frac * 100);
    }
  }
  std::fprintf(f, "  ],\n");
  // The vertical scan over shared batches: one pass over the planes per
  // batch, so us/query falls as more queries share it. The "arrival"
  // rows time the raw kernel over a store in arrival order; the "prefix"
  // rows time LinearScanIndex::SearchBatch over its prefix-ordered store.
  std::fprintf(f, "  \"vertical_multi\": [\n");
  {
    std::vector<std::vector<VerticalMultiRow>> sweeps;
    for (std::size_t bits : {64, 128}) {
      sweeps.push_back(MeasureVerticalMulti(bits, 3));
    }
    sweeps.push_back(MeasureScanMulti(64, 3));
    for (std::size_t w = 0; w < sweeps.size(); ++w) {
      const auto& rows = sweeps[w];
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const VerticalMultiRow& row = rows[i];
        std::fprintf(f,
                     "    {\"store\": \"%s\", \"bits\": %zu, "
                     "\"codes\": %zu, \"r\": %zu, "
                     "\"batch\": %zu, \"us_per_query\": %.2f, "
                     "\"speedup_over_batch1\": %.2f, "
                     "\"planes_scanned_frac\": %.4f, "
                     "\"blocks_skipped_frac\": %.4f}%s\n",
                     row.store.c_str(), row.bits, row.n, row.r, row.batch,
                     row.us_per_query, rows[0].us_per_query / row.us_per_query,
                     row.planes_scanned_frac, row.blocks_skipped_frac,
                     w + 1 < sweeps.size() || i + 1 < rows.size() ? "," : "");
        std::fprintf(stderr,
                     "vertical multi %s %3zu-bit r=%zu batch %2zu: %.1f "
                     "us/query (%.2fx batch 1), planes %.1f%%, skipped "
                     "%.1f%%\n",
                     row.store.c_str(), row.bits, row.r, row.batch,
                     row.us_per_query, rows[0].us_per_query / row.us_per_query,
                     row.planes_scanned_frac * 100,
                     row.blocks_skipped_frac * 100);
      }
    }
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"vertical_r_sweep\": [\n");
  {
    const std::size_t kN = std::size_t{1} << 18;
    const std::size_t kRadii[] = {2, 4, 8, 16, 32, 64};
    const std::size_t kCount = sizeof(kRadii) / sizeof(kRadii[0]);
    for (std::size_t i = 0; i < kCount; ++i) {
      VerticalRow row = MeasureVertical(128, kRadii[i], kN);
      std::fprintf(f,
                   "    {\"bits\": 128, \"codes\": %zu, \"r\": %zu, "
                   "\"horizontal_ns_per_code\": %.4f, "
                   "\"vertical_ns_per_code\": %.4f, "
                   "\"speedup\": %.2f, "
                   "\"planes_scanned_frac\": %.4f}%s\n",
                   row.n, row.r, row.horizontal_ns_per_code,
                   row.vertical_ns_per_code, row.speedup,
                   row.planes_scanned_frac, i + 1 < kCount ? "," : "");
      std::fprintf(stderr,
                   "r-sweep 128-bit r=%-2zu: %.2fx (planes %.1f%%)\n",
                   row.r, row.speedup, row.planes_scanned_frac * 100);
    }
  }
  std::fprintf(f, "  ],\n");
  MapJobRow job = MeasureMapJob();
  std::fprintf(f,
               "  \"map_job\": {\"records\": %zu, "
               "\"batched_map_seconds\": %.4f, "
               "\"batched_map_records_per_sec\": %.3e, "
               "\"batched_shuffle_records_per_sec\": %.3e},\n",
               job.records, job.batched_map_seconds,
               job.records / job.batched_map_seconds,
               job.shuffle_records / job.batched_shuffle_seconds);
  // Observability overhead on the same job: batched counters with a live
  // MetricsRegistry attached vs none. Compare metered_map_seconds across
  // a normal and a -DHAMMING_DISABLE_METRICS build for the compile-out
  // delta the acceptance bar (<3%) is about.
  const double metrics_overhead_pct =
      job.batched_map_seconds > 0
          ? (job.metered_map_seconds / job.batched_map_seconds - 1.0) * 100.0
          : 0.0;
  std::fprintf(f,
               "  \"metrics\": {\"compiled_in\": %s, "
               "\"metered_map_seconds\": %.4f, "
               "\"baseline_map_seconds\": %.4f, "
               "\"overhead_pct\": %.2f}\n",
               HAMMING_METRICS_ENABLED ? "true" : "false",
               job.metered_map_seconds, job.batched_map_seconds,
               metrics_overhead_pct);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "map-heavy job: batched %.3fs\n",
               job.batched_map_seconds);
  std::fprintf(stderr,
               "metrics (compiled %s): metered %.3fs vs %.3fs baseline "
               "(%+.2f%%)\n-> %s\n",
               HAMMING_METRICS_ENABLED ? "in" : "out",
               job.metered_map_seconds, job.batched_map_seconds,
               metrics_overhead_pct, path.c_str());
  return 0;
}

}  // namespace
}  // namespace hamming

int main(int argc, char** argv) {
  std::string json_out = "BENCH_micro.json";
  bool json_only = false;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json_only") == 0) {
      json_only = true;
    } else if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int rc = hamming::EmitJson(json_out);
  if (rc != 0 || json_only) return rc;
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
