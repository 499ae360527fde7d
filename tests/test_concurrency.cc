// Concurrency and distance-reporting tests.
#include <gtest/gtest.h>

#include <atomic>

#include "common/threadpool.h"
#include "index/dynamic_ha_index.h"
#include "index/linear_scan.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::RandomCodes;

TEST(Concurrency, ParallelSearchesOnSharedIndexAreConsistent) {
  // A built DHA-Index is immutable under Search; many threads probing it
  // concurrently must all see exact results.
  auto codes = RandomCodes(2000, 32, /*seed=*/3, /*clusters=*/8);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto queries = RandomCodes(64, 32, /*seed=*/4, /*clusters=*/8);
  std::vector<std::vector<TupleId>> expect(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect[q] = Sorted(*testutil::Search(truth, queries[q], 3));
  }

  ThreadPool pool(8);
  std::atomic<int> mismatches{0};
  ParallelFor(&pool, queries.size() * 8, [&](std::size_t i) {
    std::size_t q = i % queries.size();
    auto got = testutil::Search(index, queries[q], 3);
    if (!got.ok() || Sorted(*got) != expect[q]) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Concurrency, ParallelSearchesOnStaticIndex) {
  // The first searches after Build, Insert and Delete race each other
  // with no warming query in between: updates keep the SHA row groups
  // current, so a search only reads shared state.
  auto codes = RandomCodes(1000, 32, /*seed=*/5, /*clusters=*/8);
  StaticHAIndex index(StaticHAIndexOptions{8});
  ASSERT_TRUE(index.Build(codes).ok());
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  // The insert lands in the last row; deleting row 7 moves it there.
  const BinaryCode extra = RandomCodes(1, 32, /*seed=*/6, /*clusters=*/8)[0];
  ASSERT_TRUE(index.Insert(1000, extra).ok());
  ASSERT_TRUE(truth.Insert(1000, extra).ok());
  ASSERT_TRUE(index.Delete(7, codes[7]).ok());
  ASSERT_TRUE(truth.Delete(7, codes[7]).ok());

  // One task per pool thread, all released at once, so the first
  // searches overlap.
  constexpr std::size_t kThreads = 8;
  ThreadPool pool(kThreads);
  std::atomic<std::size_t> arrived{0};
  std::atomic<int> mismatches{0};
  ParallelFor(&pool, kThreads, [&](std::size_t t) {
    ++arrived;
    while (arrived.load() < kThreads) SleepFor(std::chrono::microseconds(10));
    for (std::size_t i = t; i < 200; i += kThreads) {
      const auto& q = codes[(i * 37) % codes.size()];
      auto got = testutil::Search(index, q, 3);
      auto expect = testutil::Search(truth, q, 3);
      if (!got.ok() || Sorted(*got) != Sorted(*expect)) ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SearchWithDistances, ReportsExactDistances) {
  auto codes = RandomCodes(500, 32, /*seed=*/7, /*clusters=*/8);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  auto queries = RandomCodes(10, 32, /*seed=*/8, /*clusters=*/8);
  for (const auto& q : queries) {
    auto got = testutil::SearchWithDistances(index, q, 4).ValueOrDie();
    auto plain = Sorted(*testutil::Search(index, q, 4));
    std::vector<TupleId> ids;
    for (const auto& [id, dist] : got) {
      EXPECT_EQ(dist, codes[id].Distance(q)) << "id " << id;
      EXPECT_LE(dist, 4u);
      ids.push_back(id);
    }
    EXPECT_EQ(Sorted(ids), plain);
  }
}

TEST(SearchWithDistances, CoversInsertBuffer) {
  DynamicHAIndexOptions opts;
  opts.insert_flush_threshold = 1000;
  DynamicHAIndex index(opts);
  auto codes = RandomCodes(50, 32, /*seed=*/9);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<TupleId>(i), codes[i]).ok());
  }
  auto got = testutil::SearchWithDistances(index, codes[7], 0).ValueOrDie();
  ASSERT_FALSE(got.empty());
  bool found = false;
  for (const auto& [id, dist] : got) {
    if (id == 7) {
      found = true;
      EXPECT_EQ(dist, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SearchWithDistances, LeaflessRejected) {
  DynamicHAIndexOptions opts;
  opts.store_tuple_ids = false;
  DynamicHAIndex index(opts);
  auto codes = RandomCodes(20, 32);
  ASSERT_TRUE(index.Build(codes).ok());
  EXPECT_TRUE(
      testutil::SearchWithDistances(index, codes[0], 3)
          .status()
          .IsNotImplemented());
}

}  // namespace
}  // namespace hamming
