// Tests for the relational operator layer (HammingTable + operators),
// including the paper's future-work similarity intersection [27].
#include "ops/operators.h"

#include <gtest/gtest.h>

#include "dataset/generators.h"
#include "hashing/spectral_hashing.h"
#include "join/centralized_join.h"
#include "test_util.h"

namespace hamming::ops {
namespace {

OperatorOptions Opts(JoinPlan plan) {
  OperatorOptions o;
  o.plan = plan;
  return o;
}

class OpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FloatMatrix r_data = GenerateDataset(DatasetKind::kNusWide, 200,
                                         {.num_clusters = 8, .seed = 1});
    FloatMatrix s_data = GenerateDataset(DatasetKind::kNusWide, 300,
                                         {.num_clusters = 8, .seed = 1});
    SpectralHashingOptions hopts;
    hopts.code_bits = 32;
    hash_ = std::shared_ptr<const SpectralHashing>(
        SpectralHashing::Train(r_data, hopts).ValueOrDie().release());
    r_ = std::make_unique<HammingTable>(
        HammingTable::FromFeatures(std::move(r_data), hash_).ValueOrDie());
    s_ = std::make_unique<HammingTable>(
        HammingTable::FromFeatures(std::move(s_data), hash_).ValueOrDie());
  }

  std::shared_ptr<const SpectralHashing> hash_;
  std::unique_ptr<HammingTable> r_;
  std::unique_ptr<HammingTable> s_;
};

TEST_F(OpsTest, TableConstruction) {
  EXPECT_EQ(r_->size(), 200u);
  EXPECT_EQ(r_->code_bits(), 32u);
  EXPECT_TRUE(r_->has_features());
  EXPECT_FALSE(
      HammingTable::FromFeatures(FloatMatrix(3, 7), hash_).ok());
  EXPECT_FALSE(HammingTable::FromFeatures(FloatMatrix(3, 225), nullptr).ok());
}

TEST_F(OpsTest, TableFromCodesOnly) {
  auto codes = testutil::RandomCodes(20, 16);
  auto t = HammingTable::FromCodes(codes).ValueOrDie();
  EXPECT_EQ(t.size(), 20u);
  EXPECT_FALSE(t.has_features());
  EXPECT_FALSE(t.HashQuery(std::vector<double>(5, 0.0)).ok());

  auto mixed = testutil::RandomCodes(2, 16);
  mixed.push_back(testutil::RandomCodes(1, 24)[0]);
  EXPECT_FALSE(HammingTable::FromCodes(mixed).ok());
}

TEST_F(OpsTest, SelectAgreesAcrossPlans) {
  auto q = r_->codes()[17];
  auto scan = HammingSelect(*s_, q, 3, Opts(JoinPlan::kNestedLoops));
  auto idx = HammingSelect(*s_, q, 3, Opts(JoinPlan::kIndexProbe));
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(Sorted(*scan), Sorted(*idx));
}

TEST_F(OpsTest, BatchSelectSerialAndParallelAgree) {
  std::vector<BinaryCode> queries(r_->codes().begin(),
                                  r_->codes().begin() + 40);
  auto serial = HammingSelectBatch(*s_, queries, 3, {});
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  OperatorOptions popts;
  popts.pool = &pool;
  auto parallel = HammingSelectBatch(*s_, queries, 3, popts);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->size(), parallel->size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(Sorted((*serial)[q]), Sorted((*parallel)[q])) << q;
  }
}

TEST_F(OpsTest, JoinPlansAllAgree) {
  auto nested = HammingJoin(*r_, *s_, 3, Opts(JoinPlan::kNestedLoops));
  auto probe = HammingJoin(*r_, *s_, 3, Opts(JoinPlan::kIndexProbe));
  auto dual = HammingJoin(*r_, *s_, 3, Opts(JoinPlan::kDualTree));
  ASSERT_TRUE(nested.ok());
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(dual.ok());
  auto norm = [](std::vector<JoinPair> p) {
    NormalizePairs(&p);
    return p;
  };
  EXPECT_EQ(norm(*probe), norm(*nested));
  EXPECT_EQ(norm(*dual), norm(*nested));
}

TEST_F(OpsTest, ParallelProbeJoinAgrees) {
  ThreadPool pool(4);
  OperatorOptions popts;
  popts.pool = &pool;
  auto serial = HammingJoin(*r_, *s_, 3, {});
  auto parallel = HammingJoin(*r_, *s_, 3, popts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  auto a = *serial;
  auto b = *parallel;
  NormalizePairs(&a);
  NormalizePairs(&b);
  EXPECT_EQ(a, b);
}

TEST_F(OpsTest, JoinRejectsMixedCodeLengths) {
  auto t16 = HammingTable::FromCodes(testutil::RandomCodes(10, 16))
                 .ValueOrDie();
  auto t32 = HammingTable::FromCodes(testutil::RandomCodes(10, 32))
                 .ValueOrDie();
  EXPECT_FALSE(HammingJoin(t16, t32, 3, {}).ok());
}

TEST_F(OpsTest, SimilarityIntersectMatchesDefinition) {
  auto in = SimilarityIntersect(*r_, *s_, 3, {});
  ASSERT_TRUE(in.ok());
  // Ground truth from the join.
  auto join = HammingJoin(*r_, *s_, 3, Opts(JoinPlan::kNestedLoops));
  ASSERT_TRUE(join.ok());
  std::vector<bool> has_match(r_->size(), false);
  for (const auto& p : *join) has_match[p.r] = true;
  std::vector<TupleId> expect;
  for (std::size_t i = 0; i < r_->size(); ++i) {
    if (has_match[i]) expect.push_back(static_cast<TupleId>(i));
  }
  EXPECT_EQ(Sorted(*in), expect);

  // Scan plan agrees.
  auto scan = SimilarityIntersect(*r_, *s_, 3,
                                  Opts(JoinPlan::kNestedLoops));
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(Sorted(*scan), expect);
}

TEST_F(OpsTest, IntersectAndDifferencePartitionR) {
  auto in = SimilarityIntersect(*r_, *s_, 3, {}).ValueOrDie();
  auto diff = SimilarityDifference(*r_, *s_, 3, {}).ValueOrDie();
  EXPECT_EQ(in.size() + diff.size(), r_->size());
  std::vector<TupleId> all = in;
  all.insert(all.end(), diff.begin(), diff.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<TupleId>(i));
  }
}

TEST_F(OpsTest, SelfIntersectAtZeroIsEverything) {
  auto in = SimilarityIntersect(*r_, *r_, 0, {}).ValueOrDie();
  EXPECT_EQ(in.size(), r_->size());
}

TEST_F(OpsTest, HashQueryRoundTrip) {
  auto code = r_->HashQuery(r_->data().Row(5)).ValueOrDie();
  EXPECT_EQ(code, r_->codes()[5]);
}

}  // namespace
}  // namespace hamming::ops
