// Serving-layer tests: batcher coalescing must be invisible (responses
// byte-identical to sequential execution), admission control must reject
// with the typed statuses, deadlines must expire, shutdown must drain —
// and the whole thing must hold up under a TSan-covered mixed load over
// shared indexes (the Serving* filter in scripts/check.sh's TSan stage).
#include "serving/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>

#include "index/concurrent_ha_index.h"
#include "index/dynamic_ha_index.h"
#include "index/linear_scan.h"
#include "serving/load_gen.h"
#include "test_util.h"

namespace hamming::serving {
namespace {

using testutil::RandomCodes;

// Shared dataset + indexes for engine tests. StaticHA is excluded on
// purpose: its lazily rebuilt group cache makes the *first* post-build
// Search thread-unsafe, which is a documented index-level caveat, not a
// serving-layer one.
struct ServingFixture {
  std::vector<BinaryCode> codes;
  LinearScanIndex linear;
  DynamicHAIndex dha;

  explicit ServingFixture(std::size_t n = 800, std::size_t bits = 64,
                          uint64_t seed = 7) {
    codes = RandomCodes(n, bits, seed, /*clusters=*/8);
    EXPECT_TRUE(linear.Build(codes).ok());
    EXPECT_TRUE(dha.Build(codes).ok());
  }

  std::vector<const HammingIndex*> Indexes() const {
    return {&linear, &dha};
  }
};

TEST(ServingBatch, CoalescedRangeResultsByteIdenticalToSequential) {
  ServingFixture fx;
  QueryEngineOptions opts;
  opts.num_workers = 1;  // one worker => maximal coalescing pressure
  opts.max_batch = 64;
  opts.batch_linger = std::chrono::microseconds(20000);
  QueryEngine engine(fx.Indexes(), opts);
  ASSERT_TRUE(engine.Start().ok());

  auto queries = RandomCodes(64, 64, /*seed=*/21, /*clusters=*/8);
  std::vector<std::future<ServeResult>> futures;
  for (const auto& q : queries) {
    auto got = engine.Submit(QueryRequest::Range(q, 3), /*index_id=*/0);
    ASSERT_TRUE(got.ok()) << got.status();
    futures.push_back(std::move(*got));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeResult r = futures[i].get();
    ASSERT_TRUE(r.response.status.ok()) << r.response.status;
    // Sequential reference: the same query, alone, through the same
    // batch entry point.
    QueryRequest req = QueryRequest::Range(queries[i], 3);
    QueryResponse ref;
    ASSERT_TRUE(fx.linear.SearchBatch({&req, 1}, {&ref, 1}).ok());
    EXPECT_EQ(r.response.ids, ref.ids) << "query " << i;
    EXPECT_EQ(r.response.has_distances, ref.has_distances);
    EXPECT_EQ(r.response.distances, ref.distances) << "query " << i;
    EXPECT_GE(r.batch_size, 1u);
  }
  ServingCounters c = engine.counters();
  EXPECT_EQ(c.accepted, queries.size());
  EXPECT_EQ(c.batched_queries, queries.size());
  // The single lingering worker must have coalesced: strictly fewer
  // index calls than queries.
  EXPECT_LT(c.batches, queries.size());
  engine.Shutdown();
}

TEST(ServingBatch, KnnCoalescingMatchesScalar) {
  ServingFixture fx;
  QueryEngineOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 16;
  opts.batch_linger = std::chrono::microseconds(5000);
  QueryEngine engine(fx.Indexes(), opts);
  ASSERT_TRUE(engine.Start().ok());

  auto queries = RandomCodes(32, 64, /*seed=*/33, /*clusters=*/8);
  std::vector<std::future<ServeResult>> futures;
  for (const auto& q : queries) {
    auto got = engine.Submit(QueryRequest::Knn(q, 7), /*index_id=*/1);
    ASSERT_TRUE(got.ok()) << got.status();
    futures.push_back(std::move(*got));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeResult r = futures[i].get();
    ASSERT_TRUE(r.response.status.ok()) << r.response.status;
    auto scalar = testutil::Knn(fx.dha, queries[i], 7);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(r.response.neighbors, *scalar) << "query " << i;
  }
  engine.Shutdown();
}

TEST(ServingAdmission, QueueFullRejectsWithResourceExhausted) {
  ServingFixture fx(64);
  QueryEngineOptions opts;
  opts.queue_capacity = 4;
  QueryEngine engine(fx.Indexes(), opts);
  // Not started yet: the queue can only fill.
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    auto got = engine.Submit(QueryRequest::Range(fx.codes[i], 2));
    ASSERT_TRUE(got.ok()) << i;
    futures.push_back(std::move(*got));
  }
  auto overflow = engine.Submit(QueryRequest::Range(fx.codes[0], 2));
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsResourceExhausted());
  EXPECT_EQ(engine.counters().rejected_queue_full, 1u);

  // Workers drain the admitted four.
  ASSERT_TRUE(engine.Start().ok());
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().response.status.ok());
  }
  engine.Shutdown();
}

TEST(ServingAdmission, LatencyBudgetShedsUnderBacklog) {
  ServingFixture fx(64);
  QueryEngineOptions opts;
  opts.latency_budget = std::chrono::microseconds(1000);
  QueryEngine engine(fx.Indexes(), opts);
  // One queued request (shedding requires a non-empty queue: an idle
  // engine with a stale EWMA must not refuse work).
  auto first = engine.Submit(QueryRequest::Range(fx.codes[0], 2));
  ASSERT_TRUE(first.ok());
  engine.SetQueueWaitEwmaForTest(50000.0);  // 50 ms >> 1 ms budget
  auto shed = engine.Submit(QueryRequest::Range(fx.codes[1], 2));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  EXPECT_EQ(engine.counters().rejected_latency, 1u);

  ASSERT_TRUE(engine.Start().ok());
  EXPECT_TRUE(first->get().response.status.ok());
  engine.Shutdown();
}

TEST(ServingDeadline, QueuedExpiryCompletesWithDeadlineExceeded) {
  ServingFixture fx(64);
  QueryEngine engine(fx.Indexes(), QueryEngineOptions{});
  const auto past = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(5);
  auto got = engine.Submit(QueryRequest::Range(fx.codes[0], 2),
                           /*index_id=*/0, past);
  ASSERT_TRUE(got.ok());  // admission accepts; expiry happens in service
  ASSERT_TRUE(engine.Start().ok());
  ServeResult r = got->get();
  EXPECT_TRUE(r.response.status.IsDeadlineExceeded()) << r.response.status;
  EXPECT_TRUE(r.response.ids.empty());
  EXPECT_EQ(engine.counters().deadline_expired, 1u);
  engine.Shutdown();
}

TEST(ServingDeadline, GenerousDeadlineServesNormally) {
  ServingFixture fx(64);
  QueryEngine engine(fx.Indexes(), QueryEngineOptions{});
  ASSERT_TRUE(engine.Start().ok());
  auto got = engine.Serve(QueryRequest::Range(fx.codes[3], 2), /*index_id=*/0,
                          /*timeout=*/std::chrono::microseconds(10'000'000));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->response.status.ok());
  EXPECT_GE(got->batch_size, 1u);
  // Queue wait is stamped into the per-query stats.
  EXPECT_EQ(got->response.stats.serving_queue_nanos,
            static_cast<uint64_t>(got->queue_wait.count()));
  engine.Shutdown();
}

TEST(ServingShutdown, DrainsQueuedRequestsThenRejects) {
  ServingFixture fx(64);
  QueryEngine engine(fx.Indexes(), QueryEngineOptions{});
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    auto got = engine.Submit(QueryRequest::Range(fx.codes[i], 2));
    ASSERT_TRUE(got.ok());
    futures.push_back(std::move(*got));
  }
  ASSERT_TRUE(engine.Start().ok());
  engine.Shutdown();  // must serve all 8 before joining
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().response.status.ok());
  }
  auto late = engine.Submit(QueryRequest::Range(fx.codes[0], 2));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsResourceExhausted());
}

TEST(ServingShutdown, NeverStartedFailsPendingFutures) {
  ServingFixture fx(64);
  auto engine = std::make_unique<QueryEngine>(fx.Indexes(),
                                              QueryEngineOptions{});
  auto got = engine->Submit(QueryRequest::Range(fx.codes[0], 2));
  ASSERT_TRUE(got.ok());
  engine->Shutdown();
  EXPECT_TRUE(got->get().response.status.IsResourceExhausted());
}

// Regression: with max_batch = 0 no worker could ever take a request,
// so Start returned OK, no future completed and Shutdown never returned.
// Start must refuse such options (and an EWMA weight outside (0, 1])
// without starting a worker. Every wait is bounded, so a regression fails
// instead of hanging.
TEST(ServingShutdown, StartRefusesOptionsNoWorkerCanServe) {
  ServingFixture fx(64);
  QueryEngineOptions zero_batch;
  zero_batch.max_batch = 0;
  QueryEngineOptions zero_alpha;
  zero_alpha.ewma_alpha = 0.0;
  QueryEngineOptions big_alpha;
  big_alpha.ewma_alpha = 1.5;
  for (const QueryEngineOptions& opts : {zero_batch, zero_alpha, big_alpha}) {
    auto engine = std::make_unique<QueryEngine>(fx.Indexes(), opts);
    auto got = engine->Submit(QueryRequest::Range(fx.codes[0], 2));
    ASSERT_TRUE(got.ok());
    const Status started = engine->Start();
    EXPECT_TRUE(started.IsInvalidArgument()) << started;
    if (started.ok()) {
      EXPECT_EQ(got->wait_for(std::chrono::seconds(2)),
                std::future_status::ready);
      // Workers that may never drain the queue would hang Shutdown (and
      // the destructor): leave this engine running instead.
      (void)engine.release();
      continue;
    }
    engine->Shutdown();
    ASSERT_EQ(got->wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "request never completed";
    EXPECT_TRUE(got->get().response.status.IsResourceExhausted());
  }
  // The boundary values are accepted.
  QueryEngineOptions edge;
  edge.max_batch = 1;
  edge.ewma_alpha = 1.0;
  QueryEngine engine(fx.Indexes(), edge);
  ASSERT_TRUE(engine.Start().ok());
  auto got = engine.Submit(QueryRequest::Range(fx.codes[0], 2));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(got->get().response.status.ok());
  engine.Shutdown();
}

// Regression: the never-started shutdown drain used to relabel every
// orphan kResourceExhausted, including requests whose deadline had
// already expired — those must complete with kDeadlineExceeded exactly
// as a worker drain would report them.
TEST(ServingShutdown, NeverStartedExpiredDeadlineGetsDeadlineExceeded) {
  ServingFixture fx(64);
  auto engine = std::make_unique<QueryEngine>(fx.Indexes(),
                                              QueryEngineOptions{});
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  auto expired = engine->Submit(QueryRequest::Range(fx.codes[0], 2),
                                /*index_id=*/0, past);
  ASSERT_TRUE(expired.ok());  // admission accepts; expiry is a drain event
  const auto far =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  auto fresh = engine->Submit(QueryRequest::Range(fx.codes[1], 2),
                              /*index_id=*/0, far);
  ASSERT_TRUE(fresh.ok());
  engine->Shutdown();
  ServeResult r_expired = expired->get();
  EXPECT_TRUE(r_expired.response.status.IsDeadlineExceeded())
      << r_expired.response.status;
  EXPECT_TRUE(r_expired.response.ids.empty());
  ServeResult r_fresh = fresh->get();
  EXPECT_TRUE(r_fresh.response.status.IsResourceExhausted())
      << r_fresh.response.status;
  EXPECT_EQ(engine->counters().deadline_expired, 1u);
}

TEST(ServingAdmission, BadIndexIdRejected) {
  ServingFixture fx(64);
  QueryEngine engine(fx.Indexes(), QueryEngineOptions{});
  auto got = engine.Submit(QueryRequest::Range(fx.codes[0], 2),
                           /*index_id=*/99);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsInvalidArgument());
}

// The TSan centerpiece: many client threads, mixed kinds, both shared
// indexes, deadlines sprinkled in, plus a metrics registry recording
// concurrently — every completed range response is verified against a
// concurrent batch of one on the same shared index.
TEST(ServingStress, MixedLoadOverSharedIndexes) {
  ServingFixture fx(600);
  obs::MetricsRegistry metrics;
  QueryEngineOptions opts;
  opts.num_workers = 4;
  opts.max_batch = 8;
  opts.queue_capacity = 4096;
  opts.batch_linger = std::chrono::microseconds(200);
  opts.metrics = &metrics;
  QueryEngine engine(fx.Indexes(), opts);
  ASSERT_TRUE(engine.Start().ok());

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 60;
  std::atomic<uint64_t> ok_count{0}, expired_count{0}, mismatch{0};
  {
    std::vector<Thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(1000 + c);
        for (std::size_t i = 0; i < kPerClient; ++i) {
          const auto& q = fx.codes[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<int64_t>(fx.codes.size()) - 1))];
          const auto index_id =
              static_cast<std::size_t>(rng.UniformInt(0, 1));
          const bool knn = rng.Bernoulli(0.3);
          QueryRequest req = knn ? QueryRequest::Knn(q, 5)
                                 : QueryRequest::Range(q, 3);
          // ~1 in 8 requests carries a microscopic deadline that may
          // expire either side of service.
          const auto timeout = rng.Bernoulli(0.125)
                                   ? std::chrono::microseconds(50)
                                   : std::chrono::microseconds(0);
          auto got = engine.Serve(std::move(req), index_id, timeout);
          if (!got.ok()) continue;  // shed; acceptable under load
          if (got->response.status.IsDeadlineExceeded()) {
            ++expired_count;
            continue;
          }
          if (!got->response.status.ok()) continue;
          ++ok_count;
          if (!knn) {
            const HammingIndex* index = fx.Indexes()[index_id];
            auto ref = testutil::Search(*index, q, 3);
            if (!ref.ok() || got->response.ids != *ref) ++mismatch;
          }
        }
      });
    }
    for (Thread& t : clients) t.join();
  }
  engine.Shutdown();

  EXPECT_EQ(mismatch.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);
  ServingCounters c = engine.counters();
  // Every accepted request either went through a batched index call or
  // expired while still queued (in-service expiries are batched too).
  EXPECT_GE(c.accepted, c.batched_queries);
  EXPECT_EQ(c.accepted, kClients * kPerClient - c.rejected_latency -
                            c.rejected_queue_full);
  EXPECT_GE(c.batches, 1u);
  auto snap = metrics.Snapshot();
  EXPECT_GT(snap.counters.at("serving.accepted"), 0);
  EXPECT_GT(snap.histograms.at("serving.batch_size").count, 0u);
  EXPECT_GT(snap.histograms.at("serving.e2e_us").count, 0u);
}

// The tentpole integration: the engine serves a ConcurrentHAIndex while
// its owner streams inserts and deletes. Responses must stay well-formed
// (OK status, ids drawn from rows that exist at *some* epoch); the
// byte-level single-epoch consistency proof lives in
// tests/test_concurrent_index.cc.
TEST(ServingStress, ServesConcurrentIndexUnderChurn) {
  auto codes = RandomCodes(512, 64, /*seed=*/11, /*clusters=*/8);
  auto churn_codes = RandomCodes(256, 64, /*seed=*/12, /*clusters=*/8);
  ConcurrentHAIndex index{ConcurrentHAIndexOptions{}};
  ASSERT_TRUE(index.Build(codes).ok());

  QueryEngineOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 8;
  opts.batch_linger = std::chrono::microseconds(100);
  QueryEngine engine(&index, opts);
  ASSERT_TRUE(engine.Start().ok());

  std::atomic<bool> stop{false};
  // Mutator owns ids >= 100000: inserts a wave, deletes it, repeats.
  Thread mutator([&] {
    TupleId next = 100000;
    while (!stop.load()) {
      std::vector<std::pair<TupleId, BinaryCode>> wave;
      for (std::size_t i = 0; i < 16; ++i) {
        const TupleId id = next++;
        wave.emplace_back(id, churn_codes[id % churn_codes.size()]);
        ASSERT_TRUE(index.Insert(wave.back().first, wave.back().second).ok());
      }
      for (const auto& [id, code] : wave) {
        ASSERT_TRUE(index.Delete(id, code).ok());
      }
    }
  });

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 40;
  std::atomic<uint64_t> served{0};
  {
    std::vector<Thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(2000 + c);
        for (std::size_t i = 0; i < kPerClient; ++i) {
          const auto& q = codes[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<int64_t>(codes.size()) - 1))];
          auto got = engine.Serve(QueryRequest::Range(q, 3));
          if (!got.ok()) continue;  // shed; acceptable under load
          ASSERT_TRUE(got->response.status.ok()) << got->response.status;
          ++served;
        }
      });
    }
    for (Thread& t : clients) t.join();
  }
  stop.store(true);
  mutator.join();
  engine.Shutdown();

  EXPECT_GT(served.load(), 0u);
  // The mutator actually published epochs while queries were in flight.
  EXPECT_GT(index.epoch(), 0u);
}

TEST(ServingLoadGen, ClosedLoopReportsSaneNumbers) {
  ServingFixture fx(400);
  QueryEngineOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 8;
  QueryEngine engine(fx.Indexes(), opts);
  ASSERT_TRUE(engine.Start().ok());
  WorkloadOptions workload;
  workload.h = 3;
  workload.knn_fraction = 0.25;
  LoadReport report = RunClosedLoop(&engine, fx.codes, workload,
                                    /*clients=*/4, /*queries_per_client=*/50);
  engine.Shutdown();
  EXPECT_EQ(report.attempted, 200u);
  EXPECT_EQ(report.completed, 200u);
  EXPECT_EQ(report.latency.count, report.completed);
  EXPECT_GT(report.achieved_qps, 0.0);
  EXPECT_LE(report.latency.p50_us, report.latency.p99_us);
  EXPECT_LE(report.latency.p99_us, report.latency.p999_us);
  EXPECT_LE(report.latency.p999_us, report.latency.max_us);
}

TEST(ServingLoadGen, OpenLoopPacesOfferedLoad) {
  ServingFixture fx(400);
  QueryEngineOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 8;
  QueryEngine engine(fx.Indexes(), opts);
  ASSERT_TRUE(engine.Start().ok());
  WorkloadOptions workload;
  workload.h = 3;
  LoadReport report = RunOpenLoop(&engine, fx.codes, workload,
                                  /*offered_qps=*/2000.0,
                                  std::chrono::milliseconds(200));
  engine.Shutdown();
  EXPECT_GT(report.attempted, 0u);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.latency.count, report.completed);
  EXPECT_LE(report.latency.p50_us, report.latency.max_us);
}

}  // namespace
}  // namespace hamming::serving
