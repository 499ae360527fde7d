// Odds and ends: memory formatting, MH serialization, index naming,
// Manku block-combination layout.
#include <gtest/gtest.h>

#include "observability/memtrack.h"
#include "index/multi_hash_table.h"
#include "test_util.h"

namespace hamming {
namespace {

TEST(MemTrack, FormatBytes) {
  EXPECT_EQ(obs::FormatBytes(0), "0B");
  EXPECT_EQ(obs::FormatBytes(473), "473B");
  EXPECT_EQ(obs::FormatBytes(1536), "1.5KB");
  EXPECT_EQ(obs::FormatBytes(28 * 1024 * 1024), "28.0MB");
  EXPECT_EQ(obs::FormatBytes(3ull << 30), "3.00GB");
}

TEST(MemTrack, BreakdownArithmetic) {
  obs::MemoryBreakdown a{100, 200};
  obs::MemoryBreakdown b{1, 2};
  a += b;
  EXPECT_EQ(a.internal_bytes, 101u);
  EXPECT_EQ(a.leaf_bytes, 202u);
  EXPECT_EQ(a.total(), 303u);
  EXPECT_NE(a.ToString().find("internal"), std::string::npos);
}

TEST(MultiHashTable, MankuLayoutMatchesPaperConfigurations) {
  // MH-4 at h=3: 4 blocks, C(4,3)=4 tables keyed on 1 block.
  // MH-10 at h=3: 5 blocks, C(5,3)=10 tables keyed on 2 blocks.
  auto codes = testutil::RandomCodes(50, 32, /*seed=*/3);
  MultiHashTableIndex mh4(4, 3);
  MultiHashTableIndex mh10(10, 3);
  ASSERT_TRUE(mh4.Build(codes).ok());
  ASSERT_TRUE(mh10.Build(codes).ok());
  EXPECT_EQ(mh4.num_blocks(), 4u);
  EXPECT_EQ(mh4.num_tables(), 4u);
  EXPECT_EQ(mh10.num_blocks(), 5u);
  EXPECT_EQ(mh10.num_tables(), 10u);
  EXPECT_TRUE(mh4.ExactFor(3));
  EXPECT_FALSE(mh4.ExactFor(4));
}

TEST(MultiHashTable, SerializationRoundTrip) {
  auto codes = testutil::RandomCodes(200, 32, /*seed=*/5, /*clusters=*/8);
  MultiHashTableIndex index(10, 3);
  ASSERT_TRUE(index.Build(codes).ok());
  BufferWriter w;
  index.Serialize(&w);
  BufferReader r(w.buffer());
  auto back = MultiHashTableIndex::Deserialize(&r).ValueOrDie();
  EXPECT_EQ(back.size(), index.size());
  auto queries = testutil::RandomCodes(10, 32, /*seed=*/6, /*clusters=*/8);
  for (const auto& q : queries) {
    EXPECT_EQ(Sorted(*testutil::Search(back, q, 3)),
              Sorted(*testutil::Search(index, q, 3)));
  }
}

TEST(MultiHashTable, SerializedSizeReflectsReplication) {
  // 10 tables must serialize to roughly 2.5x the bytes of 4 tables —
  // the broadcast cost PMH pays (Section 2 / Figure 7).
  auto codes = testutil::RandomCodes(500, 32, /*seed=*/7);
  MultiHashTableIndex mh4(4, 3), mh10(10, 3);
  ASSERT_TRUE(mh4.Build(codes).ok());
  ASSERT_TRUE(mh10.Build(codes).ok());
  BufferWriter w4, w10;
  mh4.Serialize(&w4);
  mh10.Serialize(&w10);
  EXPECT_GT(w10.size(), w4.size() * 2);
}

TEST(IndexNames, AreStable) {
  EXPECT_EQ(testutil::MakeIndex("linear")->name(), "Nested-Loops");
  EXPECT_EQ(testutil::MakeIndex("mh4")->name(), "MH-4");
  EXPECT_EQ(testutil::MakeIndex("mh10")->name(), "MH-10");
  EXPECT_EQ(testutil::MakeIndex("hengine")->name(), "HEngine");
  EXPECT_EQ(testutil::MakeIndex("hmsearch")->name(), "HmSearch");
  EXPECT_EQ(testutil::MakeIndex("radix")->name(), "Radix-Tree");
  EXPECT_EQ(testutil::MakeIndex("sha8")->name(), "SHA-Index");
  EXPECT_EQ(testutil::MakeIndex("dha")->name(), "DHA-Index");
}

TEST(MultiHashTable, RejectsOverlongKeys) {
  // 512-bit codes with MH-4: 1 kept block of 128 bits exceeds the 64-bit
  // key limit and must be rejected, not silently truncated.
  auto codes = testutil::RandomCodes(5, 512, /*seed=*/9);
  MultiHashTableIndex index(4, 3);
  EXPECT_FALSE(index.Build(codes).ok());
}

}  // namespace
}  // namespace hamming
