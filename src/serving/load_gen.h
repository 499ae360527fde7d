// Closed- and open-loop load generation against a QueryEngine.
//
// Closed loop: N client threads, each submitting its next query the
// moment the previous one completes — throughput-oriented, models a
// fixed concurrency level, and cannot observe queueing collapse (the
// clients self-throttle). Latency is measured submit -> completion.
//
// Open loop: queries arrive on a fixed schedule at an offered QPS
// regardless of how the engine is doing — the arrival process of a
// public service. Latency is measured from the *scheduled* arrival time
// (not the actual submit instant) to completion, so dispatcher lag
// cannot hide server-side queueing (the coordinated-omission trap); an
// engine that cannot sustain the offered rate shows it as unbounded tail
// growth and/or admission rejections rather than a flattering average.
//
// Both report exact percentiles (p50/p99/p999) computed from the full
// per-request latency sample vector — log-bucketed histograms are fine
// for always-on metrics but too coarse for SLO verdicts.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "code/binary_code.h"
#include "index/concurrent_ha_index.h"
#include "serving/query_engine.h"

namespace hamming::serving {

/// \brief What queries the generator draws. Queries are picked uniformly
/// (seeded) from `pool`; each is a range query with radius `h` with
/// probability 1 - knn_fraction, else a kNN query with neighbour count
/// `k`.
struct WorkloadOptions {
  std::size_t h = 2;
  std::size_t k = 8;
  double knn_fraction = 0.0;
  uint64_t seed = 42;
};

/// \brief Exact latency percentiles over one run's completed requests.
struct LatencySummary {
  uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;

  /// \brief Sorts `samples_us` in place and summarizes it.
  static LatencySummary FromSamples(std::vector<double>* samples_us);
};

/// \brief One load-generation run's outcome.
struct LoadReport {
  uint64_t attempted = 0;  // submissions tried
  uint64_t completed = 0;  // served with OK status
  uint64_t rejected = 0;   // admission-control rejections
  uint64_t failed = 0;     // any other non-OK completion
  double elapsed_seconds = 0.0;
  double achieved_qps = 0.0;  // completed / elapsed
  LatencySummary latency;     // over completed requests only
};

/// \brief Runs `clients` closed-loop threads for `queries_per_client`
/// queries each. The engine must be Start()ed.
LoadReport RunClosedLoop(QueryEngine* engine,
                         const std::vector<BinaryCode>& pool,
                         const WorkloadOptions& workload, std::size_t clients,
                         std::size_t queries_per_client);

/// \brief Offers `offered_qps` uniformly paced arrivals for `duration`,
/// then waits for every in-flight request. The engine must be Start()ed.
LoadReport RunOpenLoop(QueryEngine* engine,
                       const std::vector<BinaryCode>& pool,
                       const WorkloadOptions& workload, double offered_qps,
                       std::chrono::milliseconds duration);

/// \brief Mixed insert/delete/query churn against an internally
/// synchronized ConcurrentHAIndex being served by `engine`.
///
/// Each of `threads` workers draws ops from the configured mix: inserts
/// and deletes go straight at the index (its write lock serializes
/// them), queries go through the engine like any other client. Tuple
/// ids are sharded per thread (worker t owns initial ids congruent to t
/// modulo `threads` and mints fresh ids in its own residue class), so
/// deletes never race each other on an id — all remaining interleaving
/// is the epoch layer's problem, which is the point of the workload.
struct ChurnOptions {
  /// Probability that one op is an Insert / a Delete; the remainder are
  /// queries drawn from `workload`. A delete drawn with nothing left to
  /// delete runs as an insert instead (tallied as the op it became).
  double insert_fraction = 0.2;
  double delete_fraction = 0.1;
  std::size_t threads = 4;
  std::size_t ops_per_thread = 2000;
  /// Query shape + seed.
  WorkloadOptions workload;
};

/// \brief One churn run's outcome: the query-side LoadReport fields plus
/// the mutation and epoch-motion tallies.
struct ChurnReport {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t query_attempted = 0;
  uint64_t query_completed = 0;  // OK status
  uint64_t query_rejected = 0;   // admission control
  uint64_t query_failed = 0;     // any other non-OK
  double elapsed_seconds = 0.0;
  double query_qps = 0.0;             // completed / elapsed
  double mutations_per_second = 0.0;  // (inserts + deletes) / elapsed
  uint64_t epochs_published = 0;      // index epoch delta over the run
  uint64_t rebuilds = 0;              // base rebuild delta over the run
  LatencySummary latency;  // completed queries, submit -> completion
};

/// \brief Runs the churn mix. The engine must be Start()ed and serving
/// `index`; `index` must have been Built over `pool` (tuple i holds
/// pool[i]) so the workers know which ids exist. Inserted tuples reuse
/// codes from `pool` under fresh ids.
ChurnReport RunChurn(QueryEngine* engine, ConcurrentHAIndex* index,
                     const std::vector<BinaryCode>& pool,
                     const ChurnOptions& opts);

}  // namespace hamming::serving
