// Serving-layer tests: batcher coalescing must be invisible (responses
// byte-identical to sequential execution), admission control must reject
// with the typed status, shutdown must drain — and the whole thing must
// hold up under a TSan-covered mixed load over a shared index (the
// Serving* filter in scripts/check.sh's TSan stage).
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

// Shared dataset + indexes for engine tests; each engine serves one.
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
};

TEST(ServingBatch, CoalescedRangeResultsByteIdenticalToSequential) {
  ServingFixture fx;
  QueryEngineOptions opts;
  opts.num_workers = 1;  // one worker => maximal coalescing pressure
  opts.max_batch = 64;
  QueryEngine engine(&fx.linear, opts);

  // Queued before Start, so the worker finds them all waiting.
  auto queries = RandomCodes(64, 64, /*seed=*/21, /*clusters=*/8);
  std::vector<std::future<ServeResult>> futures;
  for (const auto& q : queries) {
    auto got = engine.Submit(QueryRequest::Range(q, 3));
    ASSERT_TRUE(got.ok()) << got.status();
    futures.push_back(std::move(*got));
  }
  ASSERT_TRUE(engine.Start().ok());
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
    // Queue wait is stamped into the per-query stats.
    EXPECT_EQ(r.response.stats.serving_queue_nanos,
              static_cast<uint64_t>(r.queue_wait.count()));
  }
  ServingCounters c = engine.counters();
  EXPECT_EQ(c.accepted, queries.size());
  EXPECT_EQ(c.batched_queries, queries.size());
  // The single worker must have coalesced the backlog: strictly fewer
  // index calls than queries.
  EXPECT_LT(c.batches, queries.size());
  engine.Shutdown();
}

TEST(ServingBatch, KnnCoalescingMatchesScalar) {
  ServingFixture fx;
  QueryEngineOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 16;
  QueryEngine engine(&fx.dha, opts);

  // Queued before Start, so the workers coalesce full batches.
  auto queries = RandomCodes(32, 64, /*seed=*/33, /*clusters=*/8);
  std::vector<std::future<ServeResult>> futures;
  for (const auto& q : queries) {
    auto got = engine.Submit(QueryRequest::Knn(q, 7));
    ASSERT_TRUE(got.ok()) << got.status();
    futures.push_back(std::move(*got));
  }
  ASSERT_TRUE(engine.Start().ok());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeResult r = futures[i].get();
    ASSERT_TRUE(r.response.status.ok()) << r.response.status;
    auto scalar = testutil::Knn(fx.dha, queries[i], 7);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(r.response.neighbors, *scalar) << "query " << i;
  }
  EXPECT_LT(engine.counters().batches, queries.size());
  engine.Shutdown();
}

TEST(ServingAdmission, QueueFullRejectsWithResourceExhausted) {
  ServingFixture fx(64);
  QueryEngineOptions opts;
  opts.queue_capacity = 4;
  QueryEngine engine(&fx.linear, opts);
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

TEST(ServingShutdown, DrainsQueuedRequestsThenRejects) {
  ServingFixture fx(64);
  QueryEngine engine(&fx.linear, QueryEngineOptions{});
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
  auto engine = std::make_unique<QueryEngine>(&fx.linear,
                                              QueryEngineOptions{});
  auto got = engine->Submit(QueryRequest::Range(fx.codes[0], 2));
  ASSERT_TRUE(got.ok());
  engine->Shutdown();
  EXPECT_TRUE(got->get().response.status.IsResourceExhausted());
}

// Regression: with max_batch = 0 no worker could ever take a request,
// so Start returned OK, no future completed and Shutdown never returned.
// Start must refuse such options without starting a worker. Every wait
// is bounded, so a regression fails instead of hanging.
TEST(ServingShutdown, StartRefusesOptionsNoWorkerCanServe) {
  ServingFixture fx(64);
  QueryEngineOptions zero_batch;
  zero_batch.max_batch = 0;
  auto refused = std::make_unique<QueryEngine>(&fx.linear, zero_batch);
  auto queued = refused->Submit(QueryRequest::Range(fx.codes[0], 2));
  ASSERT_TRUE(queued.ok());
  const Status started = refused->Start();
  EXPECT_TRUE(started.IsInvalidArgument()) << started;
  if (started.ok()) {
    EXPECT_EQ(queued->wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    // Workers that may never drain the queue would hang Shutdown (and
    // the destructor): leave this engine running instead.
    (void)refused.release();
  } else {
    refused->Shutdown();
    ASSERT_EQ(queued->wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "request never completed";
    EXPECT_TRUE(queued->get().response.status.IsResourceExhausted());
  }
  // The boundary value is accepted.
  QueryEngineOptions edge;
  edge.max_batch = 1;
  QueryEngine engine(&fx.linear, edge);
  ASSERT_TRUE(engine.Start().ok());
  auto got = engine.Submit(QueryRequest::Range(fx.codes[0], 2));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(got->get().response.status.ok());
  engine.Shutdown();
}

// The TSan centerpiece: many client threads, mixed kinds, one shared
// index, plus a metrics registry recording concurrently — every
// completed range response is verified against a concurrent batch of
// one on the same shared index.
TEST(ServingStress, MixedLoadOverSharedIndexes) {
  ServingFixture fx(600);
  obs::MetricsRegistry metrics;
  QueryEngineOptions opts;
  opts.num_workers = 4;
  opts.max_batch = 8;
  opts.queue_capacity = 4096;
  opts.metrics = &metrics;
  QueryEngine engine(&fx.linear, opts);
  ASSERT_TRUE(engine.Start().ok());

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 60;
  std::atomic<uint64_t> ok_count{0}, mismatch{0};
  {
    std::vector<Thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(1000 + c);
        for (std::size_t i = 0; i < kPerClient; ++i) {
          const auto& q = fx.codes[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<int64_t>(fx.codes.size()) - 1))];
          const bool knn = rng.Bernoulli(0.3);
          QueryRequest req = knn ? QueryRequest::Knn(q, 5)
                                 : QueryRequest::Range(q, 3);
          auto got = engine.Serve(std::move(req));
          if (!got.ok()) continue;  // queue full; acceptable under load
          if (!got->response.status.ok()) continue;
          ++ok_count;
          if (!knn) {
            auto ref = testutil::Search(fx.linear, q, 3);
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
  // Every accepted request went through a batched index call, and every
  // attempt was either accepted or rejected at the door.
  EXPECT_EQ(c.accepted, c.batched_queries);
  EXPECT_EQ(c.accepted + c.rejected_queue_full, kClients * kPerClient);
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
  QueryEngine engine(&fx.linear, opts);
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
  QueryEngine engine(&fx.linear, opts);
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
