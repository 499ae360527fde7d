// Structural and lifecycle tests specific to the Dynamic HA-Index beyond
// the cross-index exactness sweep in test_indexes.cc.
#include "index/dynamic_ha_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "index/concurrent_ha_index.h"
#include "index/linear_scan.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::RandomCodes;

TEST(DynamicHAIndex, StatsReflectStructure) {
  auto codes = RandomCodes(500, 32, /*seed=*/3, /*clusters=*/8);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  auto stats = index.Stats();
  EXPECT_GT(stats.num_leaves, 0u);
  EXPECT_LE(stats.num_leaves, 500u);
  EXPECT_GT(stats.num_internal_nodes, 0u);
  EXPECT_GT(stats.num_edges, 0u);
  EXPECT_GT(stats.depth, 1u);
  EXPECT_LE(stats.depth, index.options().max_depth + 1);
}

TEST(DynamicHAIndex, SublinearInternalNodesOnClusteredData) {
  // Section 4.7: on favourable (clustered) data the internal structure
  // stays far below one node per tuple.
  auto codes = RandomCodes(4000, 32, /*seed=*/5, /*clusters=*/16,
                           /*flip_bits=*/3);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  auto stats = index.Stats();
  EXPECT_LT(stats.num_internal_nodes, stats.num_leaves)
      << "internal nodes should be shared across leaves";
}

TEST(DynamicHAIndex, FullSpaceExample) {
  // Example 4: indexing all 2^L codes of a tiny space. Every distinct
  // code must be a leaf and searches must be exact.
  std::vector<BinaryCode> codes;
  for (uint64_t v = 0; v < 8; ++v) {
    codes.push_back(BinaryCode::FromUint64(v, 3).ValueOrDie());
  }
  DynamicHAIndexOptions opts;
  opts.window = 2;
  DynamicHAIndex index(opts);
  ASSERT_TRUE(index.Build(codes).ok());
  EXPECT_EQ(index.Stats().num_leaves, 8u);
  for (uint64_t v = 0; v < 8; ++v) {
    auto got = testutil::Search(index, codes[v], 1);
    ASSERT_TRUE(got.ok());
    // Distance <= 1 from a 3-bit code: itself + 3 neighbours.
    EXPECT_EQ(got->size(), 4u) << "v=" << v;
  }
}

TEST(DynamicHAIndex, SerializationPreservesSearchResults) {
  auto codes = RandomCodes(300, 32, /*seed=*/11, /*clusters=*/8);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  // Leave some inserts in the buffer to exercise buffer serialization.
  ASSERT_TRUE(index.Insert(1000, codes[0]).ok());

  BufferWriter w;
  index.Serialize(&w);
  BufferReader r(w.buffer());
  auto back = DynamicHAIndex::Deserialize(&r).ValueOrDie();

  auto queries = RandomCodes(10, 32, /*seed=*/77, /*clusters=*/8);
  for (const auto& q : queries) {
    auto a = testutil::Search(index, q, 3);
    auto b = testutil::Search(back, q, 3);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(Sorted(*a), Sorted(*b));
  }
  EXPECT_EQ(back.size(), index.size());
}

TEST(DynamicHAIndex, SerializationCompactsDeadNodes) {
  auto codes = RandomCodes(200, 32, /*seed=*/13, /*clusters=*/4);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  // Delete half the tuples; serialized form must stay consistent.
  for (TupleId id = 0; id < 100; ++id) {
    ASSERT_TRUE(index.Delete(id, codes[id]).ok());
  }
  BufferWriter w;
  index.Serialize(&w);
  BufferReader r(w.buffer());
  auto back = DynamicHAIndex::Deserialize(&r).ValueOrDie();
  EXPECT_EQ(back.size(), 100u);
  auto got = testutil::Search(back, codes[150], 0);
  ASSERT_TRUE(got.ok());
  bool found = false;
  for (TupleId id : *got) {
    if (id == 150) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DynamicHAIndex, MergePreservesAllTuples) {
  // The Section 5.2 global merge: two local indexes over disjoint id
  // ranges must answer like one index over the union.
  auto codes_a = RandomCodes(150, 32, /*seed=*/21, /*clusters=*/6);
  auto codes_b = RandomCodes(150, 32, /*seed=*/22, /*clusters=*/6);
  DynamicHAIndex a, b;
  std::vector<TupleId> ids_a(150), ids_b(150);
  for (std::size_t i = 0; i < 150; ++i) {
    ids_a[i] = static_cast<TupleId>(i);
    ids_b[i] = static_cast<TupleId>(1000 + i);
  }
  ASSERT_TRUE(a.BuildWithIds(ids_a, codes_a).ok());
  ASSERT_TRUE(b.BuildWithIds(ids_b, codes_b).ok());
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.size(), 300u);

  LinearScanIndex truth;
  std::vector<BinaryCode> all = codes_a;
  all.insert(all.end(), codes_b.begin(), codes_b.end());
  ASSERT_TRUE(truth.Build(all).ok());

  auto queries = RandomCodes(15, 32, /*seed=*/99, /*clusters=*/6);
  for (const auto& q : queries) {
    auto got = testutil::Search(a, q, 3);
    ASSERT_TRUE(got.ok());
    auto expect = testutil::Search(truth, q, 3);
    // Translate expected ids: rows >= 150 belong to b's 1000+ range.
    std::vector<TupleId> expect_ids;
    for (TupleId id : *expect) {
      expect_ids.push_back(id < 150 ? id : 1000 + (id - 150));
    }
    EXPECT_EQ(Sorted(*got), Sorted(expect_ids));
  }
}

TEST(DynamicHAIndex, MergeRejectsMismatchedConfigs) {
  auto codes = RandomCodes(20, 32, /*seed=*/31);
  DynamicHAIndex a;
  DynamicHAIndexOptions leafless;
  leafless.store_tuple_ids = false;
  DynamicHAIndex b(leafless);
  ASSERT_TRUE(a.Build(codes).ok());
  ASSERT_TRUE(b.Build(codes).ok());
  EXPECT_FALSE(a.MergeFrom(b).ok());

  DynamicHAIndex c;
  auto short_codes = RandomCodes(20, 16, /*seed=*/32);
  ASSERT_TRUE(c.Build(short_codes).ok());
  EXPECT_FALSE(a.MergeFrom(c).ok());
}

TEST(DynamicHAIndex, LeaflessModeSearchCodes) {
  auto codes = RandomCodes(200, 32, /*seed=*/41, /*clusters=*/8);
  DynamicHAIndexOptions opts;
  opts.store_tuple_ids = false;
  DynamicHAIndex index(opts);
  ASSERT_TRUE(index.Build(codes).ok());
  // Search by id is unavailable...
  EXPECT_TRUE(testutil::Search(index, codes[0], 3).status().IsNotImplemented());
  EXPECT_TRUE(index.Delete(0, codes[0]).IsNotImplemented());
  // ...but SearchCodes returns exactly the qualifying distinct codes.
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto queries = RandomCodes(10, 32, /*seed=*/42, /*clusters=*/8);
  for (const auto& q : queries) {
    auto got = index.SearchCodes(q, 3).ValueOrDie();
    std::vector<std::string> got_str;
    for (const auto& c : got) got_str.push_back(c.ToString());
    std::sort(got_str.begin(), got_str.end());
    got_str.erase(std::unique(got_str.begin(), got_str.end()),
                  got_str.end());

    auto ids = testutil::Search(truth, q, 3).ValueOrDie();
    std::vector<std::string> expect_str;
    for (TupleId id : ids) expect_str.push_back(codes[id].ToString());
    std::sort(expect_str.begin(), expect_str.end());
    expect_str.erase(std::unique(expect_str.begin(), expect_str.end()),
                     expect_str.end());
    EXPECT_EQ(got_str, expect_str);
  }
}

TEST(DynamicHAIndex, LeaflessUsesLessMemoryThanLeafful) {
  // Table 4's DHA "28/11" column: dropping leaf hash tables shrinks the
  // footprint substantially.
  auto codes = RandomCodes(3000, 32, /*seed=*/51, /*clusters=*/16);
  DynamicHAIndex leafful;
  DynamicHAIndexOptions lopts;
  lopts.store_tuple_ids = false;
  DynamicHAIndex leafless(lopts);
  ASSERT_TRUE(leafful.Build(codes).ok());
  ASSERT_TRUE(leafless.Build(codes).ok());
  EXPECT_LT(leafless.Memory().total(), leafful.Memory().total());
}

TEST(DynamicHAIndex, BufferFlushKeepsAnswersCorrect) {
  DynamicHAIndexOptions opts;
  opts.insert_flush_threshold = 64;
  DynamicHAIndex index(opts);
  LinearScanIndex truth;
  auto codes = RandomCodes(500, 32, /*seed=*/61, /*clusters=*/8);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<TupleId>(i), codes[i]).ok());
    ASSERT_TRUE(truth.Insert(static_cast<TupleId>(i), codes[i]).ok());
    if (i % 97 == 0) {
      auto got = testutil::Search(index, codes[i / 2], 3);
      auto expect = testutil::Search(truth, codes[i / 2], 3);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(Sorted(*got), Sorted(*expect)) << "after " << i;
    }
  }
  EXPECT_EQ(index.size(), 500u);
}

TEST(DynamicHAIndex, DeleteEverythingLeavesEmptyIndex) {
  auto codes = RandomCodes(100, 32, /*seed=*/71, /*clusters=*/4);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  for (TupleId id = 0; id < 100; ++id) {
    ASSERT_TRUE(index.Delete(id, codes[id]).ok()) << id;
  }
  EXPECT_EQ(index.size(), 0u);
  auto got = testutil::Search(index, codes[0], 32);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  auto stats = index.Stats();
  EXPECT_EQ(stats.num_leaves, 0u);
}

TEST(DynamicHAIndex, DualTreeJoinMatchesNestedLoops) {
  auto r_codes = RandomCodes(250, 32, /*seed=*/91, /*clusters=*/8);
  auto s_codes = RandomCodes(300, 32, /*seed=*/92, /*clusters=*/8);
  DynamicHAIndex r_index, s_index;
  ASSERT_TRUE(r_index.Build(r_codes).ok());
  ASSERT_TRUE(s_index.Build(s_codes).ok());
  for (std::size_t h : {0u, 2u, 4u}) {
    auto pairs = r_index.JoinWith(s_index, h).ValueOrDie();
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    std::vector<JoinPair> truth;
    for (std::size_t i = 0; i < r_codes.size(); ++i) {
      for (std::size_t j = 0; j < s_codes.size(); ++j) {
        if (r_codes[i].WithinDistance(s_codes[j], h)) {
          truth.push_back(
              {static_cast<TupleId>(i), static_cast<TupleId>(j)});
        }
      }
    }
    std::sort(truth.begin(), truth.end());
    EXPECT_EQ(pairs, truth) << "h=" << h;
  }
}

TEST(DynamicHAIndex, DualTreeJoinHandlesBufferedInserts) {
  DynamicHAIndexOptions opts;
  opts.insert_flush_threshold = 1000;  // keep everything buffered
  DynamicHAIndex r_index, s_index(opts);
  auto r_codes = RandomCodes(100, 32, /*seed=*/93, /*clusters=*/4);
  auto s_codes = RandomCodes(100, 32, /*seed=*/94, /*clusters=*/4);
  ASSERT_TRUE(r_index.Build(r_codes).ok());
  // Half of S is bulk-built, half stays in the insert buffer.
  std::vector<BinaryCode> s_half(s_codes.begin(), s_codes.begin() + 50);
  ASSERT_TRUE(s_index.Build(s_half).ok());
  for (std::size_t i = 50; i < 100; ++i) {
    ASSERT_TRUE(
        s_index.Insert(static_cast<TupleId>(i), s_codes[i]).ok());
  }
  auto pairs = r_index.JoinWith(s_index, 3).ValueOrDie();
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<JoinPair> truth;
  for (std::size_t i = 0; i < r_codes.size(); ++i) {
    for (std::size_t j = 0; j < s_codes.size(); ++j) {
      if (r_codes[i].WithinDistance(s_codes[j], 3)) {
        truth.push_back({static_cast<TupleId>(i), static_cast<TupleId>(j)});
      }
    }
  }
  std::sort(truth.begin(), truth.end());
  EXPECT_EQ(pairs, truth);
}

TEST(DynamicHAIndex, DualTreeJoinRequiresTupleIds) {
  DynamicHAIndexOptions leafless;
  leafless.store_tuple_ids = false;
  DynamicHAIndex a, b(leafless);
  auto codes = RandomCodes(20, 32, /*seed=*/95);
  ASSERT_TRUE(a.Build(codes).ok());
  ASSERT_TRUE(b.Build(codes).ok());
  EXPECT_TRUE(a.JoinWith(b, 3).status().IsNotImplemented());
}

TEST(DynamicHAIndex, WindowSizeSweepStaysExact) {
  // Figure 8's tuning knobs must never affect correctness.
  auto codes = RandomCodes(400, 32, /*seed=*/81, /*clusters=*/8);
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto q = RandomCodes(5, 32, /*seed=*/82, /*clusters=*/8);
  for (std::size_t window : {2u, 4u, 8u, 16u, 64u, 400u}) {
    for (std::size_t depth : {1u, 2u, 4u, 7u, 16u}) {
      DynamicHAIndexOptions opts;
      opts.window = window;
      opts.max_depth = depth;
      DynamicHAIndex index(opts);
      ASSERT_TRUE(index.Build(codes).ok());
      for (const auto& query : q) {
        auto got = testutil::Search(index, query, 3);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Sorted(*got), Sorted(*testutil::Search(truth, query, 3)))
            << "window=" << window << " depth=" << depth;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Corrupt forests: the layout pass refuses a payload that reaches a node
// twice, instead of handing a cyclic forest to the traversals.
// ---------------------------------------------------------------------------

// A node pattern in the paper's dot notation ("01..."): '.' is a
// wildcard, '0'/'1' an effective bit; mask marks the effective bits.
struct NodePattern {
  BinaryCode value;
  BinaryCode mask;
};

NodePattern Pattern(std::string_view dots) {
  NodePattern p{BinaryCode(dots.size()), BinaryCode(dots.size())};
  for (std::size_t i = 0; i < dots.size(); ++i) {
    if (dots[i] == '.') continue;
    p.mask.SetBit(i, true);
    p.value.SetBit(i, dots[i] == '1');
  }
  return p;
}

// A payload of one-word (16-bit) nodes. Each node is (cumulative pattern,
// children, tuple ids, frequency, leaf); the residual written is the
// cumulative pattern, which Deserialize derives again anyway.
struct PayloadNode {
  NodePattern pattern;
  std::vector<uint64_t> children;
  std::vector<uint64_t> ids;
  uint64_t frequency;
  bool leaf;
};

std::vector<uint8_t> ForestPayload(const std::vector<PayloadNode>& nodes,
                                   const std::vector<uint64_t>& roots,
                                   uint64_t num_tuples) {
  BufferWriter w;
  w.PutVarint64(1);  // store_tuple_ids
  w.PutVarint64(8);  // window
  w.PutVarint64(16);  // max_depth
  w.PutVarint64(16);  // code bits
  w.PutVarint64(num_tuples);
  w.PutVarint64(nodes.size());
  for (const auto& n : nodes) {
    for (int copy = 0; copy < 2; ++copy) {  // residual, then cumulative
      n.pattern.value.Serialize(&w);
      n.pattern.mask.Serialize(&w);
    }
    w.PutVarint64Signed(-1);
    w.PutVarint64(n.children.size());
    for (uint64_t c : n.children) w.PutVarint64(c);
    w.PutVarint64(n.ids.size());
    for (uint64_t id : n.ids) w.PutVarint64(id);
    w.PutVarint64(n.frequency);
    w.PutVarint64(n.leaf ? 1 : 0);
  }
  w.PutVarint64(roots.size());
  for (uint64_t r : roots) w.PutVarint64(r);
  w.PutVarint64(0);  // empty insert buffer
  return w.Release();
}

TEST(DynamicHAIndex, DeserializeRejectsCyclicForest) {
  // One all-wildcard internal node whose only child is itself. Accepting
  // it sent Search's BFS queue (and Stats, Memory, ExportTuples) around
  // the cycle until the allocator gave up.
  const auto bytes = ForestPayload(
      {{Pattern("................"), {0}, {}, 1, false}}, {0}, 1);
  BufferReader r(bytes);
  auto got = DynamicHAIndex::Deserialize(&r);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError()) << got.status();
}

TEST(DynamicHAIndex, DeserializeRejectsSharedChild) {
  // Two internal roots list the same leaf; the walk would report its
  // tuple twice and Delete would decrement only one parent chain.
  const auto leaf = Pattern("0101010101010101");
  const auto bytes = ForestPayload(
      {{Pattern("01.............."), {2}, {}, 1, false},
       {Pattern("0..............1"), {2}, {}, 1, false},
       {leaf, {}, {7}, 1, true}},
      {0, 1}, 1);
  BufferReader r(bytes);
  auto got = DynamicHAIndex::Deserialize(&r);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError()) << got.status();

  // The same forest with one parent per node loads and answers.
  const auto ok_bytes = ForestPayload(
      {{Pattern("01.............."), {1}, {}, 1, false},
       {leaf, {}, {7}, 1, true}},
      {0}, 1);
  BufferReader ok_r(ok_bytes);
  auto ok = DynamicHAIndex::Deserialize(&ok_r);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->CheckConsistency().ok());
  EXPECT_EQ(testutil::Search(*ok, leaf.value, 0).ValueOrDie(),
            std::vector<TupleId>{7});
}

TEST(DynamicHAIndex, DeserializeRejectsWrongTupleCount) {
  const auto leaf = Pattern("0101010101010101");
  const auto bytes = ForestPayload({{leaf, {}, {7}, 1, true}}, {0}, 2);
  BufferReader r(bytes);
  EXPECT_TRUE(DynamicHAIndex::Deserialize(&r).status().IsIOError());
}

TEST(DynamicHAIndex, LoadsDepthFirstPayload) {
  // Table 2a's codes (window 2), tuple 1 deleted and tuple 9 buffered,
  // serialized by the node-tree implementation the arena replaced: nodes
  // in depth-first order. The byte format is unchanged, so the payload
  // must load, lay out in BFS order and answer Example 1 as before.
  const std::string hex =
      "01021009080e0920000920000920000920000102080100070009800009c00009a000"
      "09e0000002050200040009110009118009b10009f18002020403000200090400090e"
      "0009b50009ff80040001060101090a00090e0009bb0009ff8004000104010109040009"
      "140009a40009f40002020706000200090a80090b8009ae8009ff800a0001050101090"
      "100090b8009a50009ff800a000103010109040009140009240009340000020c090003"
      "00094200094b80096600097f8010020b0a00020009800009800009e60009ff80120001"
      "07010109000009800009660009ff8012000102010109000009c00009240009f4001001"
      "0d000100090100090b8009250009ff801800010001010100010909b180";
  std::vector<uint8_t> bytes;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr,
                                                   16)));
  }
  BufferReader r(bytes);
  auto index = DynamicHAIndex::Deserialize(&r);
  ASSERT_TRUE(index.ok()) << index.status();
  ASSERT_TRUE(index->CheckConsistency().ok());
  EXPECT_EQ(index->size(), 8u);
  const auto stats = index->Stats();
  EXPECT_EQ(stats.num_internal_nodes, 7u);
  EXPECT_EQ(stats.num_leaves, 7u);
  EXPECT_EQ(stats.num_edges, 13u);
  EXPECT_EQ(stats.depth, 4u);
  const auto q = BinaryCode::FromString("101100010").ValueOrDie();
  auto hits = testutil::SearchWithDistances(*index, q, 3).ValueOrDie();
  std::sort(hits.begin(), hits.end());
  const std::vector<std::pair<TupleId, uint32_t>> expect = {
      {0, 3}, {3, 2}, {4, 2}, {6, 1}, {9, 1}};
  EXPECT_EQ(hits, expect);
}

TEST(DynamicHAIndex, DeadNodesYieldNothingUntilTheNextLayout) {
  // Deleting every tuple near one code kills its leaves (and parents whose
  // whole subtree went) in place; they must vanish from every view at once.
  auto codes = RandomCodes(300, 32, /*seed=*/17, /*clusters=*/6);
  DynamicHAIndexOptions opts;
  opts.insert_flush_threshold = 8;
  DynamicHAIndex index(opts);
  ASSERT_TRUE(index.Build(codes).ok());
  const BinaryCode victim = codes[0];
  std::vector<TupleId> kept;
  for (TupleId id = 0; id < codes.size(); ++id) {
    if (codes[id].Distance(victim) <= 4) {
      ASSERT_TRUE(index.Delete(id, codes[id]).ok());
    } else {
      kept.push_back(id);
    }
  }
  ASSERT_GE(kept.size(), 8u);
  ASSERT_TRUE(index.CheckConsistency().ok());
  EXPECT_TRUE(testutil::Search(index, victim, 2).ValueOrDie().empty());
  EXPECT_TRUE(index.SearchCodes(victim, 2).ValueOrDie().empty());
  EXPECT_EQ(index.ExportTuples().size(), kept.size());
  // Until the next layout the dead nodes keep their slots, so a walk over
  // the whole forest still tests them.
  auto live = index.Stats();
  obs::QueryStats walk;
  ASSERT_TRUE(testutil::SearchWithDistances(index, victim, 32, &walk).ok());
  EXPECT_GT(walk.signatures_enumerated,
            live.num_internal_nodes + live.num_leaves);
  // Inserts reaching the flush threshold lay the forest out again: the
  // dead nodes are gone and the answers stay the same.
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(index.Insert(1000 + kept[i], codes[kept[i]]).ok());
  }
  ASSERT_TRUE(index.CheckConsistency().ok());
  EXPECT_TRUE(testutil::Search(index, victim, 2).ValueOrDie().empty());
  EXPECT_EQ(index.size(), kept.size() + 8);
  live = index.Stats();
  walk = obs::QueryStats();
  ASSERT_TRUE(testutil::SearchWithDistances(index, victim, 32, &walk).ok());
  EXPECT_EQ(walk.signatures_enumerated,
            live.num_internal_nodes + live.num_leaves);
}

// ---------------------------------------------------------------------------
// Width sweep: the arena's lane loop is specialised for 1- and 2-word
// codes and generic above that, so every lifecycle stage is checked at
// widths on both sides of each word boundary, against LinearScanIndex,
// comparing (id, distance) sets.
// ---------------------------------------------------------------------------

using Hits = std::vector<std::pair<TupleId, uint32_t>>;
using WidthParam = std::tuple<std::size_t, bool>;  // (bits, clustered)

std::string WidthName(const ::testing::TestParamInfo<WidthParam>& info) {
  return "b" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) ? "_clustered" : "_uniform");
}

Hits RangeHits(const HammingIndex& index, const BinaryCode& q, std::size_t h) {
  QueryRequest req = QueryRequest::Range(q, h);
  QueryResponse resp;
  EXPECT_TRUE(index.SearchBatch({&req, 1}, {&resp, 1}).ok());
  EXPECT_TRUE(resp.status.ok()) << resp.status;
  EXPECT_TRUE(resp.has_distances);
  Hits out;
  for (std::size_t i = 0; i < resp.ids.size() && i < resp.distances.size();
       ++i) {
    out.emplace_back(resp.ids[i], resp.distances[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class DynamicHAWidthTest : public ::testing::TestWithParam<WidthParam> {
 protected:
  std::size_t bits() const { return std::get<0>(GetParam()); }

  std::vector<BinaryCode> Codes(std::size_t n, uint64_t seed) const {
    return RandomCodes(n, bits(), seed + bits(),
                       std::get<1>(GetParam()) ? 8 : 1);
  }

  std::vector<std::size_t> Radii() const {
    return {0, 1, 3, bits() / 8, bits()};
  }

  // Fresh codes plus stored ones (guaranteed h = 0 hits).
  std::vector<BinaryCode> Queries(const std::vector<BinaryCode>& stored) const {
    auto q = Codes(8, 900);
    for (std::size_t i = 0; i < stored.size(); i += stored.size() / 4) {
      q.push_back(stored[i]);
    }
    return q;
  }

  void ExpectMatchesScan(const HammingIndex& index,
                         const LinearScanIndex& truth,
                         const std::vector<BinaryCode>& queries,
                         const std::string& stage) const {
    for (const auto& q : queries) {
      for (std::size_t h : Radii()) {
        EXPECT_EQ(RangeHits(index, q, h), RangeHits(truth, q, h))
            << stage << " h=" << h;
      }
    }
  }
};

TEST_P(DynamicHAWidthTest, LifecycleMatchesLinearScan) {
  const auto codes = Codes(240, 100);
  const auto more = Codes(100, 200);
  const auto queries = Queries(codes);
  DynamicHAIndexOptions opts;
  opts.insert_flush_threshold = 64;
  DynamicHAIndex index(opts);
  LinearScanIndex truth;
  ASSERT_TRUE(index.Build(codes).ok());
  ASSERT_TRUE(truth.Build(codes).ok());
  ASSERT_TRUE(index.CheckConsistency().ok());
  ExpectMatchesScan(index, truth, queries, "build");

  // 100 inserts cross the flush threshold once; 36 stay buffered.
  auto code_of = [&](TupleId id) {
    return id < codes.size() ? codes[id] : more[id - codes.size()];
  };
  for (std::size_t i = 0; i < more.size(); ++i) {
    const auto id = static_cast<TupleId>(codes.size() + i);
    ASSERT_TRUE(index.Insert(id, more[i]).ok());
    ASSERT_TRUE(truth.Insert(id, more[i]).ok());
  }
  ASSERT_TRUE(index.CheckConsistency().ok());
  ExpectMatchesScan(index, truth, queries, "inserts");

  // A third of the tuples go, from the forest and the buffer alike.
  for (TupleId id = 0; id < codes.size() + more.size(); id += 3) {
    ASSERT_TRUE(index.Delete(id, code_of(id)).ok()) << id;
    ASSERT_TRUE(truth.Delete(id, code_of(id)).ok()) << id;
  }
  EXPECT_EQ(index.size(), truth.size());
  ASSERT_TRUE(index.CheckConsistency().ok());
  ExpectMatchesScan(index, truth, queries, "deletes");

  BufferWriter w;
  index.Serialize(&w);
  BufferReader r(w.buffer());
  auto back = DynamicHAIndex::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(back->CheckConsistency().ok());
  EXPECT_EQ(back->size(), truth.size());
  ExpectMatchesScan(*back, truth, queries, "round trip");
}

TEST_P(DynamicHAWidthTest, MergeOfTwoHalvesMatchesLinearScan) {
  const auto codes = Codes(300, 300);
  const auto extra = Codes(20, 400);
  const std::size_t half = codes.size() / 2;
  std::vector<TupleId> ids_a, ids_b;
  std::vector<BinaryCode> codes_a, codes_b;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    (i < half ? ids_a : ids_b).push_back(static_cast<TupleId>(i));
    (i < half ? codes_a : codes_b).push_back(codes[i]);
  }
  DynamicHAIndex a, b;
  ASSERT_TRUE(a.BuildWithIds(ids_a, codes_a).ok());
  ASSERT_TRUE(b.BuildWithIds(ids_b, codes_b).ok());
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  // The merged side also carries buffered inserts.
  for (std::size_t i = 0; i < extra.size(); ++i) {
    const auto id = static_cast<TupleId>(codes.size() + i);
    ASSERT_TRUE(b.Insert(id, extra[i]).ok());
    ASSERT_TRUE(truth.Insert(id, extra[i]).ok());
  }
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.size(), truth.size());
  ASSERT_TRUE(a.CheckConsistency().ok());
  ExpectMatchesScan(a, truth, Queries(codes), "merge");
}

TEST_P(DynamicHAWidthTest, ConcurrentIndexWithDeltaAndTombstones) {
  const auto codes = Codes(240, 500);
  const auto more = Codes(60, 600);
  ConcurrentHAIndexOptions opts;
  opts.rebuild_threshold = 1 << 20;  // keep the delta and the tombstones
  ConcurrentHAIndex index(opts);
  LinearScanIndex truth;
  ASSERT_TRUE(index.Build(codes).ok());
  ASSERT_TRUE(truth.Build(codes).ok());
  for (std::size_t i = 0; i < more.size(); ++i) {
    const auto id = static_cast<TupleId>(codes.size() + i);
    ASSERT_TRUE(index.Insert(id, more[i]).ok());
    ASSERT_TRUE(truth.Insert(id, more[i]).ok());
  }
  // Base-resident deletes become tombstones; delta deletes swap-remove.
  for (TupleId id = 0; id < codes.size(); id += 3) {
    ASSERT_TRUE(index.Delete(id, codes[id]).ok());
    ASSERT_TRUE(truth.Delete(id, codes[id]).ok());
  }
  for (std::size_t i = 0; i < more.size(); i += 4) {
    const auto id = static_cast<TupleId>(codes.size() + i);
    ASSERT_TRUE(index.Delete(id, more[i]).ok());
    ASSERT_TRUE(truth.Delete(id, more[i]).ok());
  }
  EXPECT_EQ(index.size(), truth.size());
  ExpectMatchesScan(index, truth, Queries(codes), "concurrent");
}

TEST_P(DynamicHAWidthTest, LeaflessSearchCodesMatchesLinearScan) {
  const auto codes = Codes(240, 700);
  const auto more = Codes(80, 800);
  DynamicHAIndexOptions opts;
  opts.store_tuple_ids = false;
  opts.insert_flush_threshold = 64;
  DynamicHAIndex index(opts);
  ASSERT_TRUE(index.Build(codes).ok());
  std::vector<BinaryCode> all = codes;
  for (std::size_t i = 0; i < more.size(); ++i) {
    ASSERT_TRUE(index.Insert(static_cast<TupleId>(all.size()), more[i]).ok());
    all.push_back(more[i]);
  }
  ASSERT_TRUE(index.CheckConsistency().ok());
  for (const auto& q : Queries(codes)) {
    for (std::size_t h : Radii()) {
      std::set<std::string> got, expect;
      for (const auto& c : index.SearchCodes(q, h).ValueOrDie()) {
        got.insert(c.ToString());
      }
      for (const auto& c : all) {
        if (c.Distance(q) <= h) expect.insert(c.ToString());
      }
      EXPECT_EQ(got, expect) << "h=" << h;
    }
  }
}

TEST_P(DynamicHAWidthTest, JoinWithMatchesNestedLoops) {
  const auto r_codes = Codes(80, 1000);
  const auto s_codes = Codes(90, 1100);
  // Both sides keep their last 20 tuples in the insert buffer.
  DynamicHAIndex r_index, s_index;
  auto load = [](DynamicHAIndex* index, const std::vector<BinaryCode>& codes) {
    const std::size_t built = codes.size() - 20;
    std::vector<BinaryCode> head(codes.begin(), codes.begin() + built);
    ASSERT_TRUE(index->Build(head).ok());
    for (std::size_t i = built; i < codes.size(); ++i) {
      ASSERT_TRUE(index->Insert(static_cast<TupleId>(i), codes[i]).ok());
    }
  };
  load(&r_index, r_codes);
  load(&s_index, s_codes);
  for (std::size_t h : Radii()) {
    auto pairs = r_index.JoinWith(s_index, h).ValueOrDie();
    std::sort(pairs.begin(), pairs.end());
    std::vector<JoinPair> truth;
    for (std::size_t i = 0; i < r_codes.size(); ++i) {
      for (std::size_t j = 0; j < s_codes.size(); ++j) {
        if (r_codes[i].Distance(s_codes[j]) <= h) {
          truth.push_back({static_cast<TupleId>(i), static_cast<TupleId>(j)});
        }
      }
    }
    EXPECT_EQ(pairs, truth) << "h=" << h;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, DynamicHAWidthTest,
    ::testing::Combine(::testing::Values(1, 31, 63, 65, 128, 225, 512),
                       ::testing::Bool()),
    WidthName);

}  // namespace
}  // namespace hamming
