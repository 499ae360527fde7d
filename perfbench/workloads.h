// The benchmark's three workloads. Each builds its inputs from the seed,
// sets up (timed, kSetupRepeats times, median reported), runs its timed phase,
// checks answers against the benchmark's own brute-force oracle, and
// fills the end-to-end metrics (untraced run) or the per-layer metrics
// of the layers it loads (traced run). README.md documents why each
// workload exists and which layers it loads and bypasses.
#pragma once

#include "harness.h"

namespace perfbench {

/// LinearScanIndex behind a QueryEngine over 1M clustered 64-bit codes.
Outcome RunScanServe(const Args& args);

/// ConcurrentHAIndex answering open-loop reads beside a write stream.
Outcome RunHaChurn(const Args& args);

/// MRHA-Index Option A Hamming self-join on the simulated cluster.
Outcome RunMrhaJoin(const Args& args);

/// Set-up repetitions whose median is setup_s.
inline constexpr int kSetupRepeats = 5;

/// Capacity SLO: p90 latency limit of a ladder window.
inline constexpr double kSloMs = 2.0;

}  // namespace perfbench
