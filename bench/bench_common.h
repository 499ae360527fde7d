// Shared plumbing for the per-table / per-figure benchmark harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// Section 6 at a laptop-friendly default scale; pass --scale=<f> to grow
// the workloads toward paper scale (absolute numbers will differ from
// the authors' 2007-era Xeon cluster; the *shapes* are the reproduction
// target — see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "observability/stopwatch.h"
#include "dataset/generators.h"
#include "hashing/spectral_hashing.h"
#include "index/hamming_index.h"
#include "kernels/hamming_kernels.h"
#include "observability/json.h"
#include "observability/memtrack.h"
#include "observability/metrics.h"

namespace hamming::bench {

/// \brief Parses --scale=<double> and --quick from argv (default 1.0).
struct BenchArgs {
  double scale = 1.0;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--scale=", 8) == 0) {
        args.scale = std::atof(argv[i] + 8);
        if (args.scale <= 0) args.scale = 1.0;
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        args.scale = 0.25;
      }
    }
    return args;
  }

  std::size_t Scaled(std::size_t base) const {
    auto n = static_cast<std::size_t>(static_cast<double>(base) * scale);
    return n < 16 ? 16 : n;
  }
};

/// \brief A dataset prepared for Hamming experiments: raw features, a
/// trained Spectral Hashing model, and the binary codes of every tuple
/// and query.
struct PreparedDataset {
  DatasetKind kind;
  FloatMatrix data;
  FloatMatrix queries;
  std::unique_ptr<SpectralHashing> hash;
  std::vector<BinaryCode> codes;
  std::vector<BinaryCode> query_codes;
  double hash_train_seconds = 0.0;
};

/// \brief Generates `n` tuples + `nq` queries of `kind`, trains Spectral
/// Hashing on a sample, and hashes everything to `code_bits`-bit codes.
inline PreparedDataset Prepare(DatasetKind kind, std::size_t n,
                               std::size_t nq, std::size_t code_bits,
                               uint64_t seed = 42) {
  PreparedDataset out;
  out.kind = kind;
  GeneratorOptions gopts;
  gopts.seed = seed;
  // Richer visual vocabulary + more within-theme variation than the
  // generator defaults: real photo collections do not collapse onto a
  // handful of identical codes, and hash-bucket selectivity (which the
  // MH/HEngine baselines live on) depends on that dispersion.
  gopts.num_clusters = 256;
  gopts.cluster_spread = 0.35;
  out.data = GenerateDataset(kind, n, gopts);
  out.queries = GenerateQueries(kind, nq, gopts);

  // Train on a capped sample: covariance + Jacobi on d x d is the fixed
  // cost; the sample size only affects estimate quality.
  std::size_t train_n = n < 2000 ? n : 2000;
  FloatMatrix sample(train_n, out.data.cols());
  for (std::size_t i = 0; i < train_n; ++i) {
    auto src = out.data.Row(i * (n / train_n));
    std::copy(src.begin(), src.end(), sample.MutableRow(i).begin());
  }
  SpectralHashingOptions hopts;
  hopts.code_bits = code_bits;
  obs::Stopwatch watch;
  out.hash = SpectralHashing::Train(sample, hopts).ValueOrDie();
  out.hash_train_seconds = watch.ElapsedSeconds();
  out.codes = out.hash->HashAll(out.data);
  out.query_codes = out.hash->HashAll(out.queries);
  return out;
}

/// \brief Average per-query H-Search latency in milliseconds. When a
/// metrics registry is supplied, each query's work profile (candidates,
/// exact distances, ...) is recorded into the "query.*" histograms.
inline double MeasureQueryMillis(
    const HammingIndex& index, const std::vector<BinaryCode>& queries,
    std::size_t h, obs::MetricsRegistry* metrics = nullptr,
    const obs::QueryStatsHistograms& hists = {}) {
  obs::Stopwatch watch;
  std::size_t sink = 0;
  // One single-request batch per query: this measures *per-query*
  // latency (the batch-amortization study lives in bench_serving).
  QueryResponse resp;
  for (const auto& q : queries) {
    QueryRequest req = QueryRequest::Range(q, h);
    if (index.SearchBatch({&req, 1}, {&resp, 1}).ok() && resp.status.ok()) {
      sink += resp.ids.size();
    }
    if (metrics != nullptr) hists.Observe(metrics, resp.stats);
  }
  double ms = watch.ElapsedMillis() / static_cast<double>(queries.size());
  // Defeat dead-code elimination.
  if (sink == static_cast<std::size_t>(-1)) std::printf("impossible\n");
  return ms;
}

/// \brief Average delete-one + insert-one latency in milliseconds
/// (Table 4's "update time").
inline double MeasureUpdateMillis(HammingIndex* index,
                                  const std::vector<BinaryCode>& codes,
                                  std::size_t rounds = 50) {
  obs::Stopwatch watch;
  for (std::size_t r = 0; r < rounds; ++r) {
    TupleId id = static_cast<TupleId>((r * 7919) % codes.size());
    // Churn on ids known to exist; failure is impossible by construction.
    (void)index->Delete(id, codes[id]);
    (void)index->Insert(id, codes[id]);
  }
  return watch.ElapsedMillis() / static_cast<double>(rounds);
}

/// \brief The commit the source checkout this binary was built from is
/// at, read when the bench runs (a value fixed at configure time would
/// go stale after the next commit); "unknown" when git or the checkout
/// is missing.
inline std::string GitSha() {
  // The directory goes in single quotes; a quote inside it closes,
  // escapes and reopens them.
  std::string cmd = "git -C '";
  for (char c : std::string(HAMMING_SOURCE_DIR)) {
    if (c == '\'') {
      cmd += "'\\''";
    } else {
      cmd += c;
    }
  }
  cmd += "' rev-parse HEAD 2>/dev/null";
  std::string sha;
  if (FILE* pipe = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha += buf;
    if (pclose(pipe) != 0) sha.clear();
  }
  if (!sha.empty() && sha.back() == '\n') sha.pop_back();
  const bool hex = !sha.empty() && sha.find_first_not_of(
                                       "0123456789abcdef") == std::string::npos;
  return hex ? sha : "unknown";
}

/// \brief The host a bench ran on, as one JSON object: cores, CPU model,
/// the kernel tier the batched routines run on, which tiers this binary
/// compiled in and can run on this CPU, compiler, build type and the
/// source checkout's git sha. Every BENCH_*.json carries it as "host",
/// so a number is never read without the machine and the code behind
/// it.
inline std::string HostJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("cores");
  w.Uint(HardwareConcurrency());
  w.Key("cpu_model");
  w.String(cpu);
  w.Key("kernel_tier");
  w.String(kernels::BackendName(kernels::ActiveBackend()));
  w.Key("kernel_tiers");
  w.BeginObject();
  w.Key("avx2_compiled");
#if defined(HAMMING_HAVE_AVX2_TU)
  w.Bool(true);
#else
  w.Bool(false);
#endif
  w.Key("avx2_supported");
  w.Bool(kernels::Avx2Supported());
  w.Key("avx512_compiled");
#if defined(HAMMING_HAVE_AVX512_TU)
  w.Bool(true);
#else
  w.Bool(false);
#endif
  w.Key("avx512_supported");
  w.Bool(kernels::Avx512Supported());
  w.EndObject();
  w.Key("compiler");
  w.String(__VERSION__);
  w.Key("build_type");
  w.String(HAMMING_BUILD_TYPE);
  w.Key("git_sha");
  w.String(GitSha());
  w.EndObject();
  return w.Release();
}

inline const char* Separator() {
  return "------------------------------------------------------------"
         "--------------------";
}

/// \brief Collects a bench binary's result rows and writes them — plus a
/// metrics snapshot, when a registry was attached to the runs — as a
/// machine-readable BENCH_<name>.json next to the human-readable tables.
///
/// Every row is an ordered list of (key, value) fields so the emitted
/// rows read exactly like the printed table; a "section" field carries
/// the dataset/configuration context that the printed tables put in
/// their headers.
class BenchReport {
 public:
  explicit BenchReport(std::string name, double scale = 1.0)
      : name_(std::move(name)), scale_(scale) {}

  class Row {
   public:
    Row& Str(std::string key, std::string value) {
      fields_.push_back(
          {std::move(key), std::move(value), 0.0, /*is_string=*/true});
      return *this;
    }
    Row& Num(std::string key, double value) {
      fields_.push_back({std::move(key), {}, value, /*is_string=*/false});
      return *this;
    }

   private:
    friend class BenchReport;
    struct Field {
      std::string key;
      std::string str;
      double num;
      bool is_string;
    };
    std::vector<Field> fields_;
  };

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// \brief Writes BENCH_<name>.json (or `path`, if non-empty) into the
  /// working directory: {"bench", "scale", "host", "rows", "metrics"?}.
  /// Records the process peak RSS into the registry first so memory
  /// shows up in the snapshot. Returns false (with a warning on stderr)
  /// on I/O error.
  bool Write(obs::MetricsRegistry* metrics = nullptr,
             const std::string& path = "") const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench");
    w.String(name_);
    w.Key("scale");
    w.Double(scale_);
    w.Key("host");
    w.Raw(HostJson());
    w.Key("rows");
    w.BeginArray();
    for (const Row& row : rows_) {
      w.BeginObject();
      for (const Row::Field& f : row.fields_) {
        w.Key(f.key);
        if (f.is_string) {
          w.String(f.str);
        } else {
          w.Double(f.num);
        }
      }
      w.EndObject();
    }
    w.EndArray();
    if (metrics != nullptr) {
      obs::RecordPeakRss(metrics);
      w.Key("metrics");
      w.Raw(metrics->Snapshot().ToJson());
    }
    w.EndObject();
    const std::string out_path =
        path.empty() ? "BENCH_" + name_ + ".json" : path;
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
      return false;
    }
    const std::string& body = w.str();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return true;
  }

 private:
  std::string name_;
  double scale_;
  std::vector<Row> rows_;
};

}  // namespace hamming::bench
