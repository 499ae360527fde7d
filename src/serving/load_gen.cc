#include "serving/load_gen.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/sync.h"
#include "observability/stopwatch.h"

namespace hamming::serving {

namespace {

/// Draws one request from the workload mix.
QueryRequest DrawRequest(const std::vector<BinaryCode>& pool,
                         const WorkloadOptions& workload, Rng* rng) {
  const auto pick = static_cast<std::size_t>(
      rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
  if (workload.knn_fraction > 0.0 && rng->Bernoulli(workload.knn_fraction)) {
    return QueryRequest::Knn(pool[pick], workload.k);
  }
  return QueryRequest::Range(pool[pick], workload.h);
}

/// Percentile by rank over an ascending-sorted sample vector.
double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Classifies one finished request into the report tallies.
void Tally(const ServeResult& r, double latency_us, LoadReport* report,
           std::vector<double>* latencies) {
  if (r.response.status.ok()) {
    ++report->completed;
    latencies->push_back(latency_us);
  } else {
    ++report->failed;
  }
}

}  // namespace

LatencySummary LatencySummary::FromSamples(std::vector<double>* samples_us) {
  LatencySummary s;
  if (samples_us->empty()) return s;
  std::sort(samples_us->begin(), samples_us->end());
  s.count = samples_us->size();
  double sum = 0.0;
  for (double v : *samples_us) sum += v;
  s.mean_us = sum / static_cast<double>(s.count);
  s.p50_us = PercentileSorted(*samples_us, 0.50);
  s.p90_us = PercentileSorted(*samples_us, 0.90);
  s.p99_us = PercentileSorted(*samples_us, 0.99);
  s.p999_us = PercentileSorted(*samples_us, 0.999);
  s.max_us = samples_us->back();
  return s;
}

LoadReport RunClosedLoop(QueryEngine* engine,
                         const std::vector<BinaryCode>& pool,
                         const WorkloadOptions& workload, std::size_t clients,
                         std::size_t queries_per_client) {
  struct ClientResult {
    LoadReport partial;
    std::vector<double> latencies_us;
  };
  std::vector<ClientResult> per_client(std::max<std::size_t>(1, clients));
  obs::Stopwatch run_watch;
  {
    std::vector<Thread> threads;
    threads.reserve(per_client.size());
    for (std::size_t c = 0; c < per_client.size(); ++c) {
      threads.emplace_back([&, c] {
        ClientResult& mine = per_client[c];
        // Per-client seed: identical run-to-run, distinct across clients.
        Rng rng(workload.seed + 0x9e3779b97f4a7c15ull * (c + 1));
        mine.latencies_us.reserve(queries_per_client);
        for (std::size_t i = 0; i < queries_per_client; ++i) {
          ++mine.partial.attempted;
          obs::Stopwatch watch;
          auto got = engine->Serve(DrawRequest(pool, workload, &rng));
          if (!got.ok()) {
            // Admission rejection surfaces as the Serve status itself.
            if (got.status().IsResourceExhausted()) {
              ++mine.partial.rejected;
            } else {
              ++mine.partial.failed;
            }
            continue;
          }
          Tally(*got, watch.ElapsedMicros(), &mine.partial,
                &mine.latencies_us);
        }
      });
    }
    for (Thread& t : threads) t.join();
  }

  LoadReport report;
  std::vector<double> all_latencies;
  for (ClientResult& cr : per_client) {
    report.attempted += cr.partial.attempted;
    report.completed += cr.partial.completed;
    report.rejected += cr.partial.rejected;
    report.failed += cr.partial.failed;
    all_latencies.insert(all_latencies.end(), cr.latencies_us.begin(),
                         cr.latencies_us.end());
  }
  report.elapsed_seconds = run_watch.ElapsedSeconds();
  report.achieved_qps =
      report.elapsed_seconds > 0.0
          ? static_cast<double>(report.completed) / report.elapsed_seconds
          : 0.0;
  report.latency = LatencySummary::FromSamples(&all_latencies);
  return report;
}

LoadReport RunOpenLoop(QueryEngine* engine,
                       const std::vector<BinaryCode>& pool,
                       const WorkloadOptions& workload, double offered_qps,
                       std::chrono::milliseconds duration) {
  LoadReport report;
  if (offered_qps <= 0.0 || duration.count() <= 0) return report;
  Rng rng(workload.seed);
  const auto interarrival = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / offered_qps));

  struct InFlight {
    std::chrono::steady_clock::time_point scheduled;
    std::future<ServeResult> future;
  };
  std::vector<InFlight> inflight;
  inflight.reserve(static_cast<std::size_t>(
      offered_qps * std::chrono::duration<double>(duration).count() + 16));

  obs::Stopwatch run_watch;
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + duration;
  auto next_arrival = start;
  while (next_arrival < end) {
    // Pace to the schedule: sleep until the next arrival instant. If the
    // dispatcher itself falls behind (submission is cheap, so only under
    // extreme rates), requests burst out back-to-back — the schedule,
    // not the engine, stays the arrival authority.
    const auto now = std::chrono::steady_clock::now();
    if (next_arrival > now) SleepFor(next_arrival - now);
    ++report.attempted;
    auto got = engine->Submit(DrawRequest(pool, workload, &rng));
    if (!got.ok()) {
      if (got.status().IsResourceExhausted()) {
        ++report.rejected;
      } else {
        ++report.failed;
      }
    } else {
      inflight.push_back({next_arrival, std::move(*got)});
    }
    next_arrival += interarrival;
  }

  std::vector<double> latencies_us;
  latencies_us.reserve(inflight.size());
  for (InFlight& f : inflight) {
    ServeResult r = f.future.get();
    // Latency from the scheduled arrival, so dispatcher lag cannot mask
    // server-side queueing (coordinated omission).
    const double latency_us =
        std::chrono::duration<double, std::micro>(r.completed_at -
                                                  f.scheduled)
            .count();
    Tally(r, latency_us, &report, &latencies_us);
  }
  report.elapsed_seconds = run_watch.ElapsedSeconds();
  report.achieved_qps =
      report.elapsed_seconds > 0.0
          ? static_cast<double>(report.completed) / report.elapsed_seconds
          : 0.0;
  report.latency = LatencySummary::FromSamples(&latencies_us);
  return report;
}

ChurnReport RunChurn(QueryEngine* engine, ConcurrentHAIndex* index,
                     const std::vector<BinaryCode>& pool,
                     const ChurnOptions& opts) {
  ChurnReport report;
  if (pool.empty()) return report;
  const std::size_t threads = std::max<std::size_t>(1, opts.threads);
  const std::size_t initial = index->size();
  const uint64_t epoch_start = index->epoch();
  const uint64_t rebuilds_start = index->rebuilds();

  struct WorkerResult {
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    LoadReport queries;  // attempted/completed/rejected/failed
    std::vector<double> latencies_us;
  };
  std::vector<WorkerResult> per_worker(threads);

  obs::Stopwatch run_watch;
  {
    std::vector<Thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        WorkerResult& mine = per_worker[t];
        Rng rng(opts.workload.seed + 0xd1b54a32d192ed03ull * (t + 1));
        // Id sharding: this worker owns residue class t (mod threads) —
        // its slice of the initial corpus plus every id it mints.
        std::vector<std::pair<TupleId, BinaryCode>> owned;
        for (std::size_t i = t; i < initial; i += threads) {
          owned.emplace_back(static_cast<TupleId>(i), pool[i]);
        }
        TupleId next_id = static_cast<TupleId>(initial + t);
        for (std::size_t op = 0; op < opts.ops_per_thread; ++op) {
          const double draw = rng.UniformReal(0.0, 1.0);
          const bool want_insert = draw < opts.insert_fraction;
          const bool want_delete =
              !want_insert && draw < opts.insert_fraction +
                                         opts.delete_fraction;
          if (want_insert || (want_delete && owned.empty())) {
            const TupleId id = next_id;
            next_id += static_cast<TupleId>(threads);
            const BinaryCode& code = pool[id % pool.size()];
            if (index->Insert(id, code).ok()) {
              ++mine.inserts;
              owned.emplace_back(id, code);
            }
          } else if (want_delete) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.UniformInt(0, static_cast<int64_t>(owned.size()) - 1));
            if (index->Delete(owned[pick].first, owned[pick].second).ok()) {
              ++mine.deletes;
              owned[pick] = std::move(owned.back());
              owned.pop_back();
            }
          } else {
            ++mine.queries.attempted;
            obs::Stopwatch watch;
            auto got = engine->Serve(DrawRequest(pool, opts.workload, &rng));
            if (!got.ok()) {
              if (got.status().IsResourceExhausted()) {
                ++mine.queries.rejected;
              } else {
                ++mine.queries.failed;
              }
              continue;
            }
            Tally(*got, watch.ElapsedMicros(), &mine.queries,
                  &mine.latencies_us);
          }
        }
      });
    }
    for (Thread& w : workers) w.join();
  }

  std::vector<double> all_latencies;
  for (WorkerResult& wr : per_worker) {
    report.inserts += wr.inserts;
    report.deletes += wr.deletes;
    report.query_attempted += wr.queries.attempted;
    report.query_completed += wr.queries.completed;
    report.query_rejected += wr.queries.rejected;
    report.query_failed += wr.queries.failed;
    all_latencies.insert(all_latencies.end(), wr.latencies_us.begin(),
                         wr.latencies_us.end());
  }
  report.elapsed_seconds = run_watch.ElapsedSeconds();
  if (report.elapsed_seconds > 0.0) {
    report.query_qps =
        static_cast<double>(report.query_completed) / report.elapsed_seconds;
    report.mutations_per_second =
        static_cast<double>(report.inserts + report.deletes) /
        report.elapsed_seconds;
  }
  report.epochs_published = index->epoch() - epoch_start;
  report.rebuilds = index->rebuilds() - rebuilds_start;
  report.latency = LatencySummary::FromSamples(&all_latencies);
  return report;
}

}  // namespace hamming::serving
