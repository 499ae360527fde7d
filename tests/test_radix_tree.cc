// Structural tests for the PATRICIA radix-tree index.
#include "index/radix_tree.h"

#include <gtest/gtest.h>

#include "index/linear_scan.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::RandomCodes;

TEST(RadixTree, PathCompressionBoundsNodeCount) {
  // A PATRICIA trie over k distinct keys has at most 2k - 1 nodes.
  auto codes = RandomCodes(1000, 32, /*seed=*/3);
  RadixTreeIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  EXPECT_LE(index.NodeCount(), 2 * codes.size() - 1);
  EXPECT_GE(index.NodeCount(), 1u);
}

TEST(RadixTree, SingleCodeIsOneNode) {
  RadixTreeIndex index;
  auto code = BinaryCode::FromString("10110").ValueOrDie();
  ASSERT_TRUE(index.Insert(0, code).ok());
  EXPECT_EQ(index.NodeCount(), 1u);
  auto got = testutil::Search(index, code, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, std::vector<TupleId>{0});
}

TEST(RadixTree, PaperFigure1Example) {
  // Figure 1's radix tree over Table 2a. The example query from
  // Example 3: tq = "110010110", h = 2 — t0 and t1 are pruned at their
  // shared "001" prefix.
  auto codes = testutil::PaperTableS();
  RadixTreeIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  auto tq = BinaryCode::FromString("110010110").ValueOrDie();
  auto got = testutil::Search(index, tq, 2);
  ASSERT_TRUE(got.ok());
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  EXPECT_EQ(Sorted(*got), Sorted(*testutil::Search(truth, tq, 2)));
  for (TupleId id : *got) {
    EXPECT_NE(id, 0u);
    EXPECT_NE(id, 1u);
  }
}

TEST(RadixTree, DeleteMergesSingleChildChains) {
  RadixTreeIndex index;
  auto a = BinaryCode::FromString("00000000").ValueOrDie();
  auto b = BinaryCode::FromString("00001111").ValueOrDie();
  auto c = BinaryCode::FromString("11110000").ValueOrDie();
  ASSERT_TRUE(index.Insert(0, a).ok());
  ASSERT_TRUE(index.Insert(1, b).ok());
  ASSERT_TRUE(index.Insert(2, c).ok());
  std::size_t before = index.NodeCount();
  ASSERT_TRUE(index.Delete(1, b).ok());
  EXPECT_LT(index.NodeCount(), before);
  // Remaining codes still findable.
  EXPECT_EQ(Sorted(*testutil::Search(index, a, 0)), std::vector<TupleId>{0});
  EXPECT_EQ(Sorted(*testutil::Search(index, c, 0)), std::vector<TupleId>{2});
  // Deleting the rest empties the tree.
  ASSERT_TRUE(index.Delete(0, a).ok());
  ASSERT_TRUE(index.Delete(2, c).ok());
  EXPECT_EQ(index.NodeCount(), 0u);
  EXPECT_EQ(index.size(), 0u);
}

TEST(RadixTree, ChurnStaysExact) {
  RadixTreeIndex index;
  LinearScanIndex truth;
  auto codes = RandomCodes(300, 24, /*seed=*/7, /*clusters=*/6);
  Rng rng(9);
  std::vector<bool> present(codes.size(), false);
  for (int op = 0; op < 1500; ++op) {
    TupleId id = static_cast<TupleId>(
        rng.UniformInt(0, static_cast<int64_t>(codes.size()) - 1));
    if (present[id]) {
      ASSERT_TRUE(index.Delete(id, codes[id]).ok()) << op;
      ASSERT_TRUE(truth.Delete(id, codes[id]).ok());
      present[id] = false;
    } else {
      ASSERT_TRUE(index.Insert(id, codes[id]).ok());
      ASSERT_TRUE(truth.Insert(id, codes[id]).ok());
      present[id] = true;
    }
    if (op % 97 == 0) {
      const BinaryCode& q = codes[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(codes.size()) - 1))];
      auto got = testutil::Search(index, q, 2);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Sorted(*got), Sorted(*testutil::Search(truth, q, 2)))
          << "op " << op;
    }
  }
}

TEST(RadixTree, WorstCaseAlternatingPrefixes) {
  // Codes differing in the very first bit split at the root — the
  // prefix-sensitivity weakness the HA-Index addresses. Still exact.
  std::vector<BinaryCode> codes;
  codes.push_back(BinaryCode::FromString("011111111").ValueOrDie());
  codes.push_back(BinaryCode::FromString("111111111").ValueOrDie());
  RadixTreeIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  auto got = testutil::Search(index, codes[0], 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(*got), (std::vector<TupleId>{0, 1}));
}

}  // namespace
}  // namespace hamming
