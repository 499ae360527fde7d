// Benchmark program entry point. run.py builds this binary and runs it as
//
//   perfbench --workload <scan_serve|ha_churn|mrha_join> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//             [--git-sha <sha>]
//
// It prints a host line, a diagnostics line and, last, one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <scan_serve|ha_churn|"
               "mrha_join> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--out-dir <dir>] [--git-sha <sha>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");

  perfbench::TightenTimerSlack();
  if (args.trace) std::filesystem::create_directories(args.out_dir);

  perfbench::Outcome out;
  if (args.workload == "scan_serve") {
    out = perfbench::RunScanServe(args);
  } else if (args.workload == "ha_churn") {
    out = perfbench::RunHaChurn(args);
  } else if (args.workload == "mrha_join") {
    out = perfbench::RunMrhaJoin(args);
  } else {
    return Usage("unknown workload");
  }

  if (!args.trace) {
    out.Set("ok_frac",
            out.attempted == 0
                ? 0.0
                : 1.0 - static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted),
            "1");
  }
  std::cout << "host " << perfbench::HostJson(args) << "\n";
  std::cout << "diagnostics " << perfbench::MetricsJson(out.diagnostics)
            << "\n";
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << perfbench::MetricsJson(out.metrics)
            << "}" << std::endl;
  return 0;
}
