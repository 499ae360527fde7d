// Cross-implementation correctness: every Hamming index must return
// exactly the linear-scan result set for every query — the central
// invariant of the whole library, swept over index types, thresholds,
// code lengths and data distributions with TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "index/concurrent_ha_index.h"
#include "test_util.h"

namespace hamming {
namespace {

using testutil::MakeIndex;
using testutil::RandomCodes;

// ---------------------------------------------------------------------------
// One query surface, checked by the compiler: SearchBatch and KnnBatch
// are the only public queries of every index. A requires-expression
// honours access control, so the concept is false while a per-query
// entry point is protected, private or absent.
// ---------------------------------------------------------------------------

// Naming the member catches any signature; an overloaded name defeats
// &T::name, so the call forms catch those.
template <typename T>
concept HasPublicPerQueryEntry =
    requires { &T::Search; } || requires { &T::Knn; } ||
    requires { &T::SearchWithDistances; } || requires { &T::SearchOne; } ||
    requires(const T& t, const BinaryCode& q, std::size_t n) {
      t.Search(q, n);
    } || requires(const T& t, const BinaryCode& q, std::size_t n) {
      t.Knn(q, n);
    } || requires(const T& t, const BinaryCode& q, std::size_t n) {
      t.SearchWithDistances(q, n);
    } || requires(const T& t, const BinaryCode& q, std::size_t n,
                  QueryResponse* out) { t.SearchOne(q, n, out); };

static_assert(!HasPublicPerQueryEntry<HammingIndex>);
static_assert(!HasPublicPerQueryEntry<LinearScanIndex>);
static_assert(!HasPublicPerQueryEntry<MultiHashTableIndex>);
static_assert(!HasPublicPerQueryEntry<HEngineIndex>);
static_assert(!HasPublicPerQueryEntry<HmSearchIndex>);
static_assert(!HasPublicPerQueryEntry<RadixTreeIndex>);
static_assert(!HasPublicPerQueryEntry<StaticHAIndex>);
static_assert(!HasPublicPerQueryEntry<DynamicHAIndex>);
static_assert(!HasPublicPerQueryEntry<ConcurrentHAIndex>);
static_assert(!HasPublicPerQueryEntry<ConcurrentHAIndex::Snapshot>);

// Positive controls: re-publishing the hook, or declaring a public
// scalar query, satisfies the concept, so the assertions above can fail.
struct RepublishedHook : HammingIndex {
  using HammingIndex::SearchOne;
};
static_assert(HasPublicPerQueryEntry<RepublishedHook>);

struct OverloadedScalarSearch {
  Result<std::vector<TupleId>> Search(const BinaryCode& query,
                                      std::size_t h) const;
  Result<std::vector<TupleId>> Search(const BinaryCode& query, std::size_t h,
                                      obs::QueryStats* stats) const;
};
static_assert(HasPublicPerQueryEntry<OverloadedScalarSearch>);

// ---------------------------------------------------------------------------
// Exactness sweep: (index name, code bits, clustered?, h)
// ---------------------------------------------------------------------------

using ExactnessParam = std::tuple<std::string, std::size_t, bool, std::size_t>;

std::string ExactnessName(
    const ::testing::TestParamInfo<ExactnessParam>& info) {
  std::string n = std::get<0>(info.param);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n + "_b" + std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_clustered" : "_uniform") + "_h" +
         std::to_string(std::get<3>(info.param));
}

std::string PlainName(const ::testing::TestParamInfo<std::string>& info) {
  std::string n = info.param;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

class IndexExactnessTest : public ::testing::TestWithParam<ExactnessParam> {};

TEST_P(IndexExactnessTest, MatchesLinearScan) {
  const auto& [name, bits, clustered, h] = GetParam();
  auto codes = RandomCodes(600, bits, /*seed=*/1234 + bits + h,
                           clustered ? 16 : 1);
  auto index = MakeIndex(name, /*h_max=*/8);
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(index->Build(codes).ok());
  EXPECT_EQ(index->size(), codes.size());

  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());

  auto queries = RandomCodes(25, bits, /*seed=*/99 + h, clustered ? 16 : 1);
  // Also query with dataset members (guaranteed h=0 hits).
  queries.push_back(codes[0]);
  queries.push_back(codes[codes.size() / 2]);
  // The MH indexes are laid out for h_max = 3 (the paper's setting);
  // beyond that they are approximate with no false positives — the
  // sensitivity to h the paper criticizes in Section 2.
  bool exact = true;
  if ((name == "mh4" || name == "mh10") && h > 3) exact = false;

  for (const auto& q : queries) {
    auto expect = testutil::Search(truth, q, h);
    auto got = testutil::Search(*index, q, h);
    ASSERT_TRUE(got.ok()) << got.status();
    if (exact) {
      EXPECT_EQ(Sorted(*got), Sorted(*expect))
          << name << " bits=" << bits << " h=" << h;
    } else {
      auto sorted_got = Sorted(*got);
      auto sorted_expect = Sorted(*expect);
      EXPECT_TRUE(std::includes(sorted_expect.begin(), sorted_expect.end(),
                                sorted_got.begin(), sorted_got.end()))
          << name << " returned a false positive";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexExactnessTest,
    ::testing::Combine(
        ::testing::Values("linear", "mh4", "mh10", "hengine", "hmsearch",
                          "radix", "sha8", "sha4", "dha", "dha-w4",
                          "dha-w32", "cha"),
        ::testing::Values(32u, 64u),
        ::testing::Bool(),
        ::testing::Values(0u, 1u, 3u, 6u)),
    ExactnessName);

// ---------------------------------------------------------------------------
// Dynamic update sweep: insert/delete keep results consistent.
// ---------------------------------------------------------------------------

class IndexUpdateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IndexUpdateTest, DeleteThenReinsertPreservesResults) {
  // Table 4's "update" operation: delete one tuple, insert it back.
  const std::string name = GetParam();
  auto codes = RandomCodes(300, 32, /*seed=*/77, /*clusters=*/8);
  auto index = MakeIndex(name);
  ASSERT_TRUE(index->Build(codes).ok());

  auto q = codes[17];
  auto before = testutil::Search(*index, q, 3);
  ASSERT_TRUE(before.ok());

  for (TupleId victim : {TupleId{17}, TupleId{200}, TupleId{299}}) {
    ASSERT_TRUE(index->Delete(victim, codes[victim]).ok()) << name;
    auto during = testutil::Search(*index, q, 3);
    ASSERT_TRUE(during.ok());
    for (TupleId id : *during) EXPECT_NE(id, victim);
    ASSERT_TRUE(index->Insert(victim, codes[victim]).ok());
  }
  auto after = testutil::Search(*index, q, 3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Sorted(*after), Sorted(*before)) << name;
}

TEST_P(IndexUpdateTest, DeleteMissingTupleFails) {
  const std::string name = GetParam();
  auto codes = RandomCodes(50, 32, /*seed=*/7);
  auto index = MakeIndex(name);
  ASSERT_TRUE(index->Build(codes).ok());
  BinaryCode absent(32);
  absent.SetBit(0, true);
  // Either the id or the code will not match anything indexed.
  Status st = index->Delete(9999, absent);
  EXPECT_FALSE(st.ok()) << name;
}

TEST_P(IndexUpdateTest, IncrementalInsertFindsNewTuples) {
  const std::string name = GetParam();
  auto codes = RandomCodes(200, 32, /*seed=*/31, /*clusters=*/4);
  auto index = MakeIndex(name);
  ASSERT_TRUE(index->Build(codes).ok());

  auto extra = RandomCodes(40, 32, /*seed=*/131, /*clusters=*/4);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(
        index->Insert(static_cast<TupleId>(1000 + i), extra[i]).ok());
  }
  for (std::size_t i = 0; i < extra.size(); ++i) {
    auto got = testutil::Search(*index, extra[i], 0);
    ASSERT_TRUE(got.ok());
    bool found = false;
    for (TupleId id : *got) {
      if (id == 1000 + i) found = true;
    }
    EXPECT_TRUE(found) << name << " missing inserted tuple " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexUpdateTest,
    ::testing::Values("linear", "mh4", "mh10", "hengine", "hmsearch",
                      "radix", "sha8", "dha", "cha"),
    PlainName);

// ---------------------------------------------------------------------------
// Shared behaviour
// ---------------------------------------------------------------------------

TEST(Indexes, PaperExampleSelect) {
  // Example 1: h-select(tq="101100010", S) with h=3 -> {t0, t3, t4, t6}.
  auto codes = testutil::PaperTableS();
  auto tq = BinaryCode::FromString("101100010").ValueOrDie();
  for (const auto& name : testutil::AllIndexNames()) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    auto got = testutil::Search(*index, tq, 3);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(Sorted(*got), (std::vector<TupleId>{0, 3, 4, 6})) << name;
  }
}

TEST(Indexes, EmptyIndexReturnsNothing) {
  for (const auto& name : testutil::AllIndexNames()) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build({}).ok()) << name;
    BinaryCode q(32);
    auto got = testutil::Search(*index, q, 3);
    // Empty index: either empty result or (for length-strict indexes) an
    // accepted empty probe.
    if (got.ok()) {
      EXPECT_TRUE(got->empty()) << name;
    }
  }
}

TEST(Indexes, DuplicateCodesAllReported) {
  std::vector<BinaryCode> codes;
  auto c = BinaryCode::FromString("10110011").ValueOrDie();
  for (int i = 0; i < 5; ++i) codes.push_back(c);
  for (const auto& name : testutil::AllIndexNames()) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    auto got = testutil::Search(*index, c, 0);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(Sorted(*got), (std::vector<TupleId>{0, 1, 2, 3, 4})) << name;
  }
}

TEST(Indexes, ThresholdCoveringWholeSpaceReturnsEverything) {
  auto codes = RandomCodes(100, 16, /*seed=*/3);
  for (const auto& name : testutil::AllIndexNames()) {
    // MH-k would need 17 segments over 16 bits to stay exact at h = 16.
    if (name == "mh4" || name == "mh10") continue;
    auto index = MakeIndex(name, /*h_max=*/16);
    ASSERT_TRUE(index->Build(codes).ok());
    BinaryCode q(16);
    auto got = testutil::Search(*index, q, 16);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(got->size(), codes.size()) << name;
  }
}

TEST(Indexes, MemoryAccountingIsPositiveAndOrdered) {
  auto codes = RandomCodes(2000, 32, /*seed=*/5, /*clusters=*/16);
  // The paper's Table 4 ordering: MH-10 uses more memory than MH-4; the
  // HA-Index variants use less than the multi-table baselines.
  auto mh4 = MakeIndex("mh4");
  auto mh10 = MakeIndex("mh10");
  auto dha = MakeIndex("dha");
  ASSERT_TRUE(mh4->Build(codes).ok());
  ASSERT_TRUE(mh10->Build(codes).ok());
  ASSERT_TRUE(dha->Build(codes).ok());
  EXPECT_GT(mh4->Memory().total(), 0u);
  EXPECT_GT(mh10->Memory().total(), mh4->Memory().total());
  EXPECT_LT(dha->Memory().total(), mh4->Memory().total());
}

TEST(Indexes, QueryLengthMismatchRejected) {
  // Every family refuses a 32-bit query over 64-bit codes, in the status
  // of its own response, through both batch entry points.
  auto codes = RandomCodes(20, 64, /*seed=*/9);
  std::vector<std::pair<std::string, std::unique_ptr<HammingIndex>>> indexes;
  for (const auto& name : testutil::AllIndexNames()) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok()) << name;
    indexes.emplace_back(name, std::move(index));
  }
  // A ConcurrentHAIndex whose tuples all sit in its delta.
  auto delta_only = std::make_unique<ConcurrentHAIndex>();
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_TRUE(delta_only->Insert(static_cast<TupleId>(i), codes[i]).ok());
  }
  ASSERT_EQ(delta_only->Pin()->delta_inserts(), codes.size());
  indexes.emplace_back("cha-delta", std::move(delta_only));

  const QueryRequest range = QueryRequest::Range(BinaryCode(32), 3);
  const QueryRequest knn = QueryRequest::Knn(BinaryCode(32), 3);
  for (const auto& [name, index] : indexes) {
    QueryResponse resp;
    ASSERT_TRUE(index->SearchBatch({&range, 1}, {&resp, 1}).ok()) << name;
    EXPECT_TRUE(resp.status.IsInvalidArgument())
        << name << " SearchBatch: " << resp.status;
    ASSERT_TRUE(index->KnnBatch({&knn, 1}, {&resp, 1}).ok()) << name;
    EXPECT_TRUE(resp.status.IsInvalidArgument())
        << name << " KnnBatch: " << resp.status;
  }
}

TEST(Indexes, HEngineRejectsThresholdAboveHmax) {
  auto codes = RandomCodes(20, 32, /*seed=*/9);
  HEngineIndex index(/*h_max=*/3);
  ASSERT_TRUE(index.Build(codes).ok());
  EXPECT_FALSE(testutil::Search(index, codes[0], 5).ok());
}

// ---------------------------------------------------------------------------
// KnnBatch on the base interface: the default radius expansion (range
// queries at growing h) must agree with LinearScanIndex's batched-kernel
// override.
// ---------------------------------------------------------------------------

TEST(IndexKnn, DefaultRadiusExpansionMatchesBatchedScan) {
  const std::size_t kK = 9;
  auto codes = RandomCodes(400, 64, /*seed=*/77, /*clusters=*/8);
  LinearScanIndex scan;
  ASSERT_TRUE(scan.Build(codes).ok());
  auto dha = MakeIndex("dha");  // inherits the default KnnBatch
  ASSERT_TRUE(dha->Build(codes).ok());

  auto queries = RandomCodes(10, 64, /*seed=*/5, /*clusters=*/8);
  queries.push_back(codes[3]);  // guaranteed distance-0 hit
  for (const auto& q : queries) {
    auto exact = testutil::Knn(scan, q, kK);
    auto via_search = testutil::Knn(*dha, q, kK);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(via_search.ok()) << via_search.status();
    ASSERT_EQ(exact->size(), kK);
    ASSERT_EQ(via_search->size(), kK);
    for (std::size_t i = 0; i < kK; ++i) {
      // Same distance profile; ties may order differently, so check the
      // reported distance is each id's true distance.
      EXPECT_EQ((*exact)[i].second, (*via_search)[i].second) << "rank " << i;
      const auto& [id, dist] = (*via_search)[i];
      EXPECT_EQ(codes[id].Distance(q), dist);
    }
  }
}

TEST(IndexKnn, HandlesSmallAndEmptyCases) {
  auto codes = RandomCodes(5, 32, /*seed=*/11);
  for (const char* name : {"linear", "dha"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    // k larger than the index: everything comes back, ascending distance.
    auto all = testutil::Knn(*index, codes[0], 50);
    ASSERT_TRUE(all.ok()) << name;
    EXPECT_EQ(all->size(), codes.size()) << name;
    for (std::size_t i = 1; i < all->size(); ++i) {
      EXPECT_LE((*all)[i - 1].second, (*all)[i].second) << name;
    }
    // k = 0 and empty index return empty results.
    auto none = testutil::Knn(*index, codes[0], 0);
    ASSERT_TRUE(none.ok()) << name;
    EXPECT_TRUE(none->empty()) << name;
    auto empty = MakeIndex(name);
    ASSERT_TRUE(empty->Build({}).ok());
    auto from_empty = testutil::Knn(*empty, codes[0], 3);
    ASSERT_TRUE(from_empty.ok()) << name;
    EXPECT_TRUE(from_empty->empty()) << name;
  }
}

TEST(IndexKnn, KAtAndAboveDatasetSizeReturnsAllTuplesOnce) {
  auto codes = RandomCodes(23, 32, /*seed=*/21);
  for (const char* name : {"linear", "dha"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    for (std::size_t k : {codes.size(), codes.size() + 1, codes.size() * 4}) {
      auto all = testutil::Knn(*index, codes[2], k);
      ASSERT_TRUE(all.ok()) << name << " k=" << k;
      ASSERT_EQ(all->size(), codes.size()) << name << " k=" << k;
      std::vector<bool> found(codes.size(), false);
      for (const auto& [id, dist] : *all) {
        ASSERT_LT(id, codes.size()) << name;
        EXPECT_FALSE(found[id]) << name << " duplicate id " << id;
        found[id] = true;
        EXPECT_EQ(codes[id].Distance(codes[2]), dist) << name;
      }
    }
  }
}

TEST(IndexKnn, DistanceTiesAtTheCutStayExact) {
  // Query 0...0; one code at distance 0, two at distance 1, four at
  // distance 2. k = 2 cuts inside the distance-1 tie group and k = 4
  // inside the distance-2 group.
  std::vector<BinaryCode> codes;
  BinaryCode zero(16);
  codes.push_back(zero);
  for (std::size_t pos : {0u, 5u}) {
    BinaryCode c(16);
    c.SetBit(pos, true);
    codes.push_back(c);
  }
  for (std::size_t pos : {1u, 4u, 9u, 13u}) {
    BinaryCode c(16);
    c.SetBit(pos, true);
    c.SetBit(15, true);
    codes.push_back(c);
  }
  for (const char* name : {"linear", "dha"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok());
    for (auto [k, want_last] : {std::pair<std::size_t, uint32_t>{2, 1},
                                {3, 1},
                                {4, 2},
                                {6, 2}}) {
      auto got = testutil::Knn(*index, zero, k);
      ASSERT_TRUE(got.ok()) << name << " k=" << k;
      ASSERT_EQ(got->size(), k) << name << " k=" << k;
      for (std::size_t i = 1; i < got->size(); ++i) {
        EXPECT_LE((*got)[i - 1].second, (*got)[i].second) << name;
      }
      // Distances are exact even for the ties at the cut, and the k-th
      // distance matches the true distance profile (1,1,2,2,2,2 after
      // the distance-0 hit).
      EXPECT_EQ(got->back().second, want_last) << name << " k=" << k;
      for (const auto& [id, dist] : *got) {
        EXPECT_EQ(codes[id].Distance(zero), dist) << name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The batch query surface (SearchBatch / KnnBatch): every index — native
// override or looping default — must answer a batch exactly as it answers
// the same queries as batches of one, and the per-match distances an
// index reports (has_distances) must be the true distances.
// ---------------------------------------------------------------------------

TEST(BatchApi, SearchBatchMatchesScalarForEveryIndex) {
  auto codes = RandomCodes(500, 64, /*seed=*/314, /*clusters=*/8);
  auto queries = RandomCodes(12, 64, /*seed=*/159, /*clusters=*/8);
  queries.push_back(codes[7]);
  for (const char* name : {"linear", "mh4", "hengine", "hmsearch", "radix",
                           "sha8", "dha"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok()) << name;
    for (std::size_t h : {0ul, 2ul, 3ul}) {
      std::vector<QueryRequest> requests;
      for (const auto& q : queries) {
        requests.push_back(QueryRequest::Range(q, h));
      }
      std::vector<QueryResponse> responses(requests.size());
      ASSERT_TRUE(index
                      ->SearchBatch({requests.data(), requests.size()},
                                    {responses.data(), responses.size()})
                      .ok())
          << name;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(responses[i].status.ok()) << name << " query " << i;
        auto scalar = testutil::Search(*index, queries[i], h);
        ASSERT_TRUE(scalar.ok()) << name;
        EXPECT_EQ(responses[i].ids, *scalar)
            << name << " h=" << h << " query " << i;
        if (responses[i].has_distances) {
          ASSERT_EQ(responses[i].distances.size(), responses[i].ids.size())
              << name;
          for (std::size_t j = 0; j < responses[i].ids.size(); ++j) {
            EXPECT_EQ(responses[i].distances[j],
                      codes[responses[i].ids[j]].Distance(queries[i]))
                << name << " query " << i << " match " << j;
          }
        }
      }
    }
  }
}

TEST(BatchApi, CoalescedScanBatchMatchesBatchesOfOne) {
  // 64 mixed requests over a scan large enough for the plane copy: the
  // selective radii share one block-major plane pass, the rest one
  // tile-major pass. Every response, QueryStats included, must equal
  // the same request sent alone.
  auto codes = RandomCodes(6000, 64, /*seed=*/27, /*clusters=*/16,
                           /*flip_bits=*/6);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  Rng rng(28);
  const std::size_t kRadii[] = {3, 3, 3, 9, 0, 1, 2, 5, 8, 12, 64};
  std::vector<QueryRequest> requests;
  for (std::size_t i = 0; i < 64; ++i) {
    BinaryCode q = codes[static_cast<std::size_t>(rng.UniformInt(0, 5999))];
    q.FlipBit(static_cast<std::size_t>(rng.UniformInt(0, 63)));
    requests.push_back(QueryRequest::Range(
        q, kRadii[static_cast<std::size_t>(
               rng.UniformInt(0, std::size(kRadii) - 1))]));
  }
  std::vector<QueryResponse> responses(requests.size());
  ASSERT_TRUE(index.SearchBatch(requests, responses).ok());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse alone;
    ASSERT_TRUE(index.SearchBatch({&requests[i], 1}, {&alone, 1}).ok());
    ASSERT_TRUE(responses[i].status.ok());
    EXPECT_EQ(responses[i].ids, alone.ids) << "request " << i;
    EXPECT_EQ(responses[i].distances, alone.distances) << "request " << i;
    EXPECT_TRUE(responses[i].stats == alone.stats)
        << "request " << i << ": " << responses[i].stats.ToJson() << " vs "
        << alone.stats.ToJson();
    if (requests[i].h * 8 <= 64) {
      EXPECT_GT(alone.stats.planes_scanned, 0u) << "request " << i;
    }
  }
}

TEST(BatchApi, PrefixOrderedScanMatchesBruteForceThroughChurn) {
  // LinearScanIndex::Build lays codes out in prefix order, so the plane
  // scan's common-bit summaries skip blocks; Insert appends at the tail
  // and Delete swap-removes, narrowing the summaries. Range and kNN
  // answers must equal a scalar brute force over the live (id, code)
  // pairs at every radius, before and after interleaved churn, and every
  // request of a batch must equal the same request sent alone.
  for (std::size_t bits : {31ul, 64ul, 128ul}) {
    const auto codes = RandomCodes(6000, bits, /*seed=*/bits + 90,
                                   /*clusters=*/24, /*flip_bits=*/3);
    LinearScanIndex index;
    ASSERT_TRUE(index.Build(codes).ok());
    std::map<TupleId, BinaryCode> live;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      live.emplace(static_cast<TupleId>(i), codes[i]);
    }
    Rng rng(bits);
    auto any_live = [&]() -> const std::pair<const TupleId, BinaryCode>& {
      auto it = live.begin();
      std::advance(it,
                   rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      return *it;
    };
    uint64_t skipped = 0;
    auto check = [&](const char* phase) {
      std::vector<QueryRequest> requests;
      for (std::size_t q = 0; q < 6; ++q) {
        BinaryCode code = any_live().second;
        code.FlipBit(static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bits) - 1)));
        for (std::size_t h : {0ul, 1ul, 3ul, bits / 8, bits - 1, bits}) {
          requests.push_back(QueryRequest::Range(code, h));
        }
      }
      std::vector<QueryResponse> responses(requests.size());
      ASSERT_TRUE(index.SearchBatch(requests, responses).ok());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const QueryRequest& req = requests[i];
        std::vector<std::pair<TupleId, uint32_t>> want;
        for (const auto& [id, code] : live) {
          const auto d = static_cast<uint32_t>(code.Distance(req.code));
          if (d <= req.h) want.emplace_back(id, d);
        }
        ASSERT_TRUE(responses[i].status.ok());
        std::vector<std::pair<TupleId, uint32_t>> got;
        for (std::size_t j = 0; j < responses[i].ids.size(); ++j) {
          got.emplace_back(responses[i].ids[j], responses[i].distances[j]);
        }
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << phase << " bits=" << bits << " h=" << req.h;
        QueryResponse alone;
        ASSERT_TRUE(index.SearchBatch({&req, 1}, {&alone, 1}).ok());
        EXPECT_EQ(responses[i].ids, alone.ids) << phase << " request " << i;
        EXPECT_EQ(responses[i].distances, alone.distances)
            << phase << " request " << i;
        EXPECT_TRUE(responses[i].stats == alone.stats)
            << phase << " request " << i << ": "
            << responses[i].stats.ToJson() << " vs " << alone.stats.ToJson();
        EXPECT_LE(alone.stats.blocks_skipped, alone.stats.blocks_pruned);
        skipped += alone.stats.blocks_skipped;
      }
      std::vector<QueryRequest> knn;
      for (std::size_t k : {1ul, 10ul, 50ul}) {
        knn.push_back(QueryRequest::Knn(any_live().second, k));
      }
      std::vector<QueryResponse> nearest(knn.size());
      ASSERT_TRUE(index.KnnBatch(knn, nearest).ok());
      for (std::size_t i = 0; i < knn.size(); ++i) {
        std::vector<uint32_t> want;
        for (const auto& [id, code] : live) {
          want.push_back(static_cast<uint32_t>(code.Distance(knn[i].code)));
        }
        std::sort(want.begin(), want.end());
        want.resize(knn[i].k);
        ASSERT_TRUE(nearest[i].status.ok());
        std::vector<uint32_t> got;
        std::vector<TupleId> ids;
        for (const auto& [id, d] : nearest[i].neighbors) {
          ASSERT_EQ(live.count(id), 1u) << phase << " id " << id;
          EXPECT_EQ(live.at(id).Distance(knn[i].code), d) << phase;
          got.push_back(d);
          ids.push_back(id);
        }
        EXPECT_EQ(got, want) << phase << " bits=" << bits << " k="
                             << knn[i].k;
        std::sort(ids.begin(), ids.end());
        EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
      }
    };
    check("build");
    TupleId next = static_cast<TupleId>(codes.size());
    for (std::size_t step = 0; step < 600; ++step) {
      if (rng.UniformInt(0, 1) == 0) {
        const auto [id, code] = any_live();
        ASSERT_TRUE(index.Delete(id, code).ok());
        live.erase(id);
      } else {
        BinaryCode code = any_live().second;
        code.FlipBit(static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bits) - 1)));
        ASSERT_TRUE(index.Insert(next, code).ok());
        live.emplace(next++, code);
      }
    }
    ASSERT_EQ(index.size(), live.size());
    check("churn");
    // The prefix order must actually exercise the skip.
    EXPECT_GT(skipped, 0u) << "bits=" << bits;
  }
}

TEST(BatchApi, KnnBatchMatchesScalarKnn) {
  auto codes = RandomCodes(300, 64, /*seed=*/271, /*clusters=*/8);
  auto queries = RandomCodes(8, 64, /*seed=*/828, /*clusters=*/8);
  for (const char* name : {"linear", "dha", "sha8"}) {
    auto index = MakeIndex(name);
    ASSERT_TRUE(index->Build(codes).ok()) << name;
    std::vector<QueryRequest> requests;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      requests.push_back(QueryRequest::Knn(queries[i], 1 + 3 * i));
    }
    std::vector<QueryResponse> responses(requests.size());
    ASSERT_TRUE(index
                    ->KnnBatch({requests.data(), requests.size()},
                               {responses.data(), responses.size()})
                    .ok())
        << name;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok()) << name;
      auto scalar = testutil::Knn(*index, queries[i], requests[i].k);
      ASSERT_TRUE(scalar.ok()) << name;
      EXPECT_EQ(responses[i].neighbors, *scalar) << name << " query " << i;
    }
  }
}

TEST(BatchApi, MismatchedSpansRejected) {
  auto codes = RandomCodes(32, 32, /*seed=*/4);
  LinearScanIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  std::vector<QueryRequest> requests(2, QueryRequest::Range(codes[0], 1));
  std::vector<QueryResponse> responses(1);
  EXPECT_TRUE(index
                  .SearchBatch({requests.data(), requests.size()},
                               {responses.data(), responses.size()})
                  .IsInvalidArgument());
  EXPECT_TRUE(index
                  .KnnBatch({requests.data(), requests.size()},
                            {responses.data(), responses.size()})
                  .IsInvalidArgument());
}

TEST(BatchApi, PerRequestFailureDoesNotPoisonTheBatch) {
  auto codes = RandomCodes(64, 32, /*seed=*/6);
  auto dha = MakeIndex("dha");
  ASSERT_TRUE(dha->Build(codes).ok());
  std::vector<QueryRequest> requests;
  requests.push_back(QueryRequest::Range(codes[0], 2));
  requests.push_back(
      QueryRequest::Range(RandomCodes(1, 16, /*seed=*/8)[0], 2));  // bad len
  requests.push_back(QueryRequest::Range(codes[1], 2));
  std::vector<QueryResponse> responses(requests.size());
  ASSERT_TRUE(dha->SearchBatch({requests.data(), requests.size()},
                               {responses.data(), responses.size()})
                  .ok());
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_TRUE(responses[1].status.IsInvalidArgument());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_EQ(responses[0].ids, *testutil::Search(*dha, codes[0], 2));
  EXPECT_EQ(responses[2].ids, *testutil::Search(*dha, codes[1], 2));
}

// ---------------------------------------------------------------------------
// The geometric (distance-guided) kNN radius expansion: fewer rounds and
// less re-scan waste than the legacy h += 1 walk, with identical results.
// ---------------------------------------------------------------------------

TEST(IndexKnn, GeometricExpansionBoundsRoundsAndRecordsWaste) {
  auto codes = RandomCodes(500, 64, /*seed=*/41, /*clusters=*/8);
  LinearScanIndex truth;
  ASSERT_TRUE(truth.Build(codes).ok());
  auto dha = MakeIndex("dha");  // batch path reports distances
  ASSERT_TRUE(dha->Build(codes).ok());
  auto queries = RandomCodes(8, 64, /*seed=*/43, /*clusters=*/8);
  for (const auto& q : queries) {
    obs::QueryStats stats;
    auto got = testutil::Knn(*dha, q, 10, &stats);
    ASSERT_TRUE(got.ok());
    auto exact = testutil::Knn(truth, q, 10);
    ASSERT_TRUE(exact.ok());
    ASSERT_EQ(got->size(), exact->size());
    for (std::size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].second, (*exact)[i].second) << "rank " << i;
    }
    // Geometric doubling over 64-bit codes: radii 0,1,3,7,15,31,63 — at
    // most 7 rounds, where the legacy walk would take up to (k-th
    // distance + 1) rounds.
    EXPECT_LE(stats.radius_expansions, 7u);
  }
}

TEST(IndexKnn, RescannedResultsCountsRadiusExpansionWaste) {
  // Two codes one bit apart. Knn(zero, 2) needs two rounds (h=0 finds
  // only the exact match), and the second round re-returns it — exactly
  // one re-scanned result.
  BinaryCode zero(32);
  BinaryCode near = zero;
  near.FlipBit(3);
  auto dha = MakeIndex("dha");
  ASSERT_TRUE(dha->Build({zero, near}).ok());
  obs::QueryStats stats;
  auto got = testutil::Knn(*dha, zero, 2, &stats);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ(stats.radius_expansions, 2u);
  EXPECT_EQ(stats.rescanned_results, 1u);
}

}  // namespace
}  // namespace hamming
