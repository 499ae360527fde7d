// Differential tests for the batched Hamming kernels and the CodeSet that
// owns both layouts: every routine must agree bit-for-bit with a loop of
// scalar BinaryCode calls, under every backend the machine supports.
#include "kernels/hamming_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "common/rng.h"
#include "common/threadpool.h"
#include "kernels/code_set.h"
#include "kernels/code_store.h"
#include "kernels/vertical_code_store.h"
#include "mapreduce/counters.h"
#include "test_util.h"

namespace hamming::kernels {
namespace {

using testutil::RandomCodes;

// Word counts straddling every boundary the kernels branch on.
const std::size_t kLengths[] = {1, 63, 64, 65, 225, 511, 512};

std::vector<Backend> BackendsUnderTest() {
  std::vector<Backend> out = {Backend::kPortable};
  if (Avx2Supported()) out.push_back(Backend::kAvx2);
  if (Avx512Supported()) out.push_back(Backend::kAvx512);
  return out;
}

// Pins a backend for one scope, restoring the previous one on exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : prev_(ActiveBackend()) { SetBackend(b); }
  ~ScopedBackend() { SetBackend(prev_); }

 private:
  Backend prev_;
};

TEST(CodeStore, RoundTripsCodes) {
  for (std::size_t bits : kLengths) {
    auto codes = RandomCodes(9, bits, /*seed=*/bits);
    auto store = CodeStore::FromCodes(codes);
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(store->size(), codes.size());
    EXPECT_EQ(store->bits(), bits);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(store->Get(i), codes[i]) << "bits=" << bits << " i=" << i;
      EXPECT_TRUE(store->Matches(i, codes[i]));
      EXPECT_FALSE(store->Matches(i, codes[(i + 1) % codes.size()]) &&
                   codes[i] != codes[(i + 1) % codes.size()]);
    }
  }
}

TEST(CodeStore, RejectsMixedLengths) {
  std::vector<BinaryCode> codes = {BinaryCode(64), BinaryCode(65)};
  EXPECT_FALSE(CodeStore::FromCodes(codes).ok());
  CodeStore store;
  ASSERT_TRUE(store.Append(BinaryCode(64)).ok());
  EXPECT_FALSE(store.Append(BinaryCode(65)).ok());
}

TEST(CodeStore, PadLanesStayZeroAcrossAppendAndSwapRemove) {
  auto codes = RandomCodes(13, 225, /*seed=*/7);
  CodeStore store;
  for (const auto& c : codes) ASSERT_TRUE(store.Append(c).ok());
  auto check_pads = [&] {
    for (std::size_t w = 0; w < store.words(); ++w) {
      const uint64_t* lane = store.Lane(w);
      for (std::size_t i = store.size(); i < store.stride(); ++i) {
        ASSERT_EQ(lane[i], 0u) << "lane " << w << " pad slot " << i;
      }
    }
  };
  check_pads();
  // Swap-removing from the middle must re-zero the vacated last slot.
  while (store.size() > 1) {
    store.SwapRemove(store.size() / 2);
    check_pads();
  }
}

TEST(CodeStore, SwapRemoveKeepsRemainingCodes) {
  auto codes = RandomCodes(10, 64, /*seed=*/11);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  store.SwapRemove(3);  // last code moves into slot 3
  ASSERT_EQ(store.size(), 9u);
  EXPECT_EQ(store.Get(3), codes[9]);
  for (std::size_t i = 0; i < 9; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(store.Get(i), codes[i]);
  }
}

TEST(Kernels, BatchDistanceMatchesScalarAcrossLengthsAndSizes) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : kLengths) {
      // Store sizes 0..9 cross the 8-code block boundary of both paths.
      for (std::size_t n = 0; n <= 9; ++n) {
        auto codes = RandomCodes(n, bits, /*seed=*/1000 + bits + n);
        auto store = CodeStore::FromCodes(codes).ValueOrDie();
        auto query = RandomCodes(1, bits, /*seed=*/2000 + bits + n)[0];
        std::vector<uint32_t> dists;
        BatchDistance(query, store, &dists);
        ASSERT_EQ(dists.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(dists[i], codes[i].Distance(query))
              << BackendName(backend) << " bits=" << bits << " n=" << n
              << " i=" << i;
        }
      }
    }
  }
}

TEST(Kernels, BatchWithinDistanceMatchesScalar) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : kLengths) {
      auto codes = RandomCodes(200, bits, /*seed=*/bits, /*clusters=*/8);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      auto query = RandomCodes(1, bits, /*seed=*/5 + bits)[0];
      for (std::size_t h : {0ul, 1ul, 3ul, bits / 4, bits}) {
        std::vector<uint32_t> slots;
        BatchWithinDistance(query, store, h, &slots);
        std::vector<uint32_t> expected;
        for (std::size_t i = 0; i < codes.size(); ++i) {
          if (codes[i].WithinDistance(query, h)) {
            expected.push_back(static_cast<uint32_t>(i));
          }
        }
        EXPECT_EQ(slots, expected)
            << BackendName(backend) << " bits=" << bits << " h=" << h;
      }
    }
  }
}

TEST(Kernels, BatchXorPopcountMatchesScalar) {
  Rng rng(99);
  // Sizes crossing the AVX2 4-word block boundary.
  for (std::size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 17ul, 1000ul}) {
    std::vector<uint64_t> values(n);
    for (auto& v : values) v = rng.NextWord();
    const uint64_t q = rng.NextWord();
    for (Backend backend : BackendsUnderTest()) {
      ScopedBackend pin(backend);
      std::vector<uint16_t> out(n, 0xabcd);
      BatchXorPopcount(q, values.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], std::popcount(values[i] ^ q))
            << BackendName(backend) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Kernels, BatchKnnMatchesSortedScalarDistances) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : {64ul, 225ul}) {
      auto codes = RandomCodes(500, bits, /*seed=*/3 * bits, /*clusters=*/4);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      auto query = RandomCodes(1, bits, /*seed=*/17 + bits)[0];
      for (std::size_t k : {0ul, 1ul, 10ul, 500ul, 600ul}) {
        auto got = BatchKnn(query, store, k);
        // Reference: all (distance, slot) pairs sorted, truncated to k.
        std::vector<std::pair<uint32_t, uint32_t>> ref;
        for (std::size_t i = 0; i < codes.size(); ++i) {
          ref.emplace_back(static_cast<uint32_t>(codes[i].Distance(query)),
                           static_cast<uint32_t>(i));
        }
        std::sort(ref.begin(), ref.end());
        ref.resize(std::min(k, ref.size()));
        ASSERT_EQ(got.size(), ref.size())
            << BackendName(backend) << " bits=" << bits << " k=" << k;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].first, ref[i].second) << "rank " << i;
          EXPECT_EQ(got[i].second, ref[i].first) << "rank " << i;
        }
      }
    }
  }
}

TEST(Kernels, MultiWithinDistanceMatchesScalarLoop) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : {64ul, 225ul}) {
      auto codes = RandomCodes(700, bits, /*seed=*/5 * bits, /*clusters=*/4);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      auto queries = RandomCodes(9, bits, /*seed=*/23 + bits, /*clusters=*/3);
      std::vector<const BinaryCode*> qptrs;
      std::vector<std::size_t> radii;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        qptrs.push_back(&queries[q]);
        radii.push_back(q * bits / 12);  // mix of selectivities incl. 0
      }
      std::vector<std::vector<SlotDistance>> hits;
      MultiWithinDistance(store, qptrs.data(), radii.data(), qptrs.size(),
                          &hits);
      ASSERT_EQ(hits.size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        std::vector<SlotDistance> ref;
        for (std::size_t i = 0; i < codes.size(); ++i) {
          auto d = static_cast<uint32_t>(codes[i].Distance(queries[q]));
          if (d <= radii[q]) {
            ref.push_back({static_cast<uint32_t>(i), d});
          }
        }
        ASSERT_EQ(hits[q].size(), ref.size())
            << BackendName(backend) << " bits=" << bits << " q=" << q;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_TRUE(hits[q][i] == ref[i]) << "q=" << q << " i=" << i;
        }
      }
    }
  }
}

TEST(Kernels, MultiKnnMatchesBatchKnn) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : {64ul, 225ul}) {
      auto codes = RandomCodes(400, bits, /*seed=*/7 * bits, /*clusters=*/4);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      auto queries = RandomCodes(6, bits, /*seed=*/31 + bits);
      std::vector<const BinaryCode*> qptrs;
      // Mixed k per query, including 0 and beyond the dataset size.
      std::vector<std::size_t> ks = {0, 1, 10, 64, 400, 500};
      for (const auto& q : queries) qptrs.push_back(&q);
      std::vector<std::vector<std::pair<uint32_t, uint32_t>>> got;
      MultiKnn(store, qptrs.data(), ks.data(), qptrs.size(), &got);
      ASSERT_EQ(got.size(), queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        auto ref = BatchKnn(queries[q], store, ks[q]);
        ASSERT_EQ(got[q].size(), ref.size())
            << BackendName(backend) << " bits=" << bits << " q=" << q;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(got[q][i], ref[i]) << "q=" << q << " rank " << i;
        }
      }
    }
  }
}

TEST(Kernels, FuzzPortableAndActiveBackendsAgree) {
  // 10k-code pass per length: the two implementations (and the scalar
  // reference, spot-checked) must produce identical distance arrays.
  for (std::size_t bits : {64ul, 225ul, 512ul}) {
    auto codes = RandomCodes(10000, bits, /*seed=*/bits * 31, /*clusters=*/32);
    auto store = CodeStore::FromCodes(codes).ValueOrDie();
    auto query = RandomCodes(1, bits, /*seed=*/bits * 7)[0];
    std::vector<uint32_t> portable;
    {
      ScopedBackend pin(Backend::kPortable);
      BatchDistance(query, store, &portable);
    }
    for (Backend backend : BackendsUnderTest()) {
      ScopedBackend pin(backend);
      std::vector<uint32_t> got;
      BatchDistance(query, store, &got);
      ASSERT_EQ(got, portable) << BackendName(backend) << " bits=" << bits;
    }
    // Spot-check the scalar reference on a sample (full loop is O(n) too
    // but the point here is agreement, not another full differential).
    for (std::size_t i = 0; i < codes.size(); i += 997) {
      EXPECT_EQ(portable[i], codes[i].Distance(query)) << "i=" << i;
    }
  }
}

// Store sizes straddling the 512-code block boundary of the vertical
// layout, including multi-block with a partial tail.
const std::size_t kVerticalSizes[] = {0, 1, 63, 64, 65, 511, 512, 513, 1500};

TEST(VerticalStore, TransposeRoundTripAcrossLengthsAndSizes) {
  for (std::size_t bits : kLengths) {
    for (std::size_t n : kVerticalSizes) {
      auto codes = RandomCodes(n, bits, /*seed=*/7000 + bits + n);
      auto store = CodeStore::FromCodes(codes).ValueOrDie();
      VerticalCodeStore v;
      v.AssignTransposed(store);
      ASSERT_EQ(v.size(), n) << "bits=" << bits;
      if (n > 0) {
        EXPECT_EQ(v.bits(), bits);
      }
      EXPECT_EQ(v.num_blocks(), (n + 511) / 512);
      // Differential round trip: transposing back must reproduce every
      // lane word, zero pads included.
      ASSERT_TRUE(v.IsTransposeOf(store)) << "bits=" << bits << " n=" << n;
      for (std::size_t i = 0; i < n; i += 101) {
        EXPECT_EQ(v.Get(i), codes[i]) << "bits=" << bits << " i=" << i;
      }
      if (n > 0) {
        // A flipped bit anywhere must break the equivalence.
        auto mutated = codes[n / 2];
        mutated.FlipBit(bits / 2);
        CodeStore other = store;
        ASSERT_TRUE(other.Append(mutated).ok());
        EXPECT_FALSE(v.IsTransposeOf(other));
      }
    }
  }
}

TEST(VerticalStore, IncrementalAppendMatchesBulkTranspose) {
  for (std::size_t bits : {64ul, 225ul, 511ul}) {
    auto codes = RandomCodes(700, bits, /*seed=*/31 * bits);
    CodeStore store;
    VerticalCodeStore incremental;
    for (const auto& c : codes) {
      ASSERT_TRUE(store.Append(c).ok());
      ASSERT_TRUE(incremental.Append(c).ok());
    }
    EXPECT_TRUE(incremental.IsTransposeOf(store)) << "bits=" << bits;
    VerticalCodeStore bulk;
    bulk.AssignTransposed(store);
    for (std::size_t i = 0; i < codes.size(); i += 97) {
      EXPECT_EQ(incremental.Get(i), bulk.Get(i)) << "i=" << i;
    }
  }
}

TEST(VerticalStore, RejectsMixedLengths) {
  VerticalCodeStore v;
  ASSERT_TRUE(v.Append(BinaryCode(64)).ok());
  EXPECT_FALSE(v.Append(BinaryCode(65)).ok());
}

TEST(VerticalStore, SwapRemoveTracksCodeStore) {
  auto codes = RandomCodes(600, 225, /*seed=*/53);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  VerticalCodeStore v;
  v.AssignTransposed(store);
  std::size_t step = 0;
  while (store.size() > 0) {
    const std::size_t i = (store.size() * 2) / 3;
    store.SwapRemove(i);
    v.SwapRemove(i);
    // Full differential every few removals and around the 512-code
    // block boundary, where the tail block empties.
    if (++step % 37 == 0 || store.size() == 512 || store.size() == 511 ||
        store.size() <= 2) {
      ASSERT_TRUE(v.IsTransposeOf(store)) << "size=" << store.size();
    }
  }
  EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------------------------------
// Common-bit summaries: per (block, 64-lane group), `agree` marks the
// planes uniform over the group's stored lanes and `value` their bits.
// AssignTransposed makes them exact; Append and SwapRemove may only
// narrow them, so every set agree bit must keep holding.
// ---------------------------------------------------------------------------

const std::size_t kSummaryWidths[] = {1, 31, 63, 64, 65, 128, 511, 512};

// Codes in prefix (numeric) order: neighbours share leading bits, so
// groups have uniform planes for the summaries to record.
std::vector<BinaryCode> PrefixSorted(std::vector<BinaryCode> codes) {
  std::sort(codes.begin(), codes.end());
  return codes;
}

// The exact (agree, value) words of code word w over the codes of lane
// group g of block b, worked out bit by bit from the codes.
std::pair<uint64_t, uint64_t> ExactSummary(
    const std::vector<BinaryCode>& codes, std::size_t b, std::size_t g,
    std::size_t w) {
  const std::size_t bits = codes.front().size();
  const std::size_t lo = b * VerticalCodeStore::kBlockCodes + g * 64;
  const std::size_t hi = std::min(codes.size(), lo + 64);
  uint64_t agree = 0;
  uint64_t value = 0;
  for (std::size_t t = 0; t < 64 && 64 * w + t < bits; ++t) {
    const std::size_t p = 64 * w + t;
    bool uniform = true;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      uniform = uniform && codes[i].GetBit(p) == codes[lo].GetBit(p);
    }
    if (!uniform) continue;
    agree |= 1ull << (63 - t);
    if (codes[lo].GetBit(p)) value |= 1ull << (63 - t);
  }
  return {agree, value};
}

TEST(VerticalStore, SummariesExactAfterTranspose) {
  for (std::size_t bits : kSummaryWidths) {
    for (std::size_t n : {1ul, 63ul, 64ul, 65ul, 512ul, 1500ul}) {
      for (bool sorted : {false, true}) {
        auto codes = RandomCodes(n, bits, /*seed=*/bits * 17 + n,
                                 /*clusters=*/3, /*flip_bits=*/2);
        if (sorted) codes = PrefixSorted(std::move(codes));
        auto store = CodeStore::FromCodes(codes).ValueOrDie();
        VerticalCodeStore v;
        v.AssignTransposed(store);
        ASSERT_TRUE(v.SummariesHold(/*exact=*/true))
            << "bits=" << bits << " n=" << n << " sorted=" << sorted;
        // The accessor's layout, against summaries worked out from the
        // codes: agree exact, value wherever agree is set.
        const std::size_t words = (bits + 63) / 64;
        for (std::size_t b = 0; b < v.num_blocks(); ++b) {
          const uint64_t* summary = v.BlockSummary(b);
          for (std::size_t g = 0; g < VerticalCodeStore::kWordsPerPlane;
               ++g) {
            if (b * VerticalCodeStore::kBlockCodes + g * 64 >= n) break;
            for (std::size_t w = 0; w < words; ++w) {
              const auto [agree, value] = ExactSummary(codes, b, g, w);
              const uint64_t got_agree =
                  summary[2 * w * VerticalCodeStore::kWordsPerPlane + g];
              const uint64_t got_value =
                  summary[(2 * w + 1) * VerticalCodeStore::kWordsPerPlane + g];
              ASSERT_EQ(got_agree, agree)
                  << "bits=" << bits << " n=" << n << " b=" << b
                  << " g=" << g << " w=" << w;
              ASSERT_EQ(got_value & agree, value)
                  << "bits=" << bits << " n=" << n << " b=" << b
                  << " g=" << g << " w=" << w;
            }
          }
        }
      }
    }
  }
}

TEST(VerticalStore, SummariesStaySoundUnderAppendAndSwapRemove) {
  // Fuzz-chosen runs of appends (near-copies of stored codes, so groups
  // keep agreeing on most planes) and swap-removes (anywhere, so moved
  // codes cross groups, blocks and the tail) over a prefix-sorted store.
  // After every step the summaries must hold, and a scan that trusts
  // them must still find every match.
  for (std::size_t bits : kSummaryWidths) {
    Rng rng(bits * 101);
    auto codes = PrefixSorted(RandomCodes(1100, bits, /*seed=*/bits + 5,
                                          /*clusters=*/4, /*flip_bits=*/3));
    auto store = CodeStore::FromCodes(codes).ValueOrDie();
    VerticalCodeStore v;
    v.AssignTransposed(store);
    for (std::size_t step = 0; step < 400; ++step) {
      const bool append = store.size() < 64 || rng.UniformInt(0, 2) == 0;
      if (append) {
        BinaryCode code = codes[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int64_t>(codes.size()) - 1))];
        code.FlipBit(static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bits) - 1)));
        ASSERT_TRUE(store.Append(code).ok());
        ASSERT_TRUE(v.Append(code).ok());
      } else {
        const auto i = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int64_t>(store.size()) - 1));
        store.SwapRemove(i);
        v.SwapRemove(i);
      }
      ASSERT_TRUE(v.SummariesHold(/*exact=*/false))
          << "bits=" << bits << " step=" << step << " size=" << v.size();
      if (step % 40 != 39) continue;
      ASSERT_TRUE(v.IsTransposeOf(store)) << "bits=" << bits;
      const BinaryCode query = store.Get(store.size() / 2);
      for (std::size_t h : {0ul, 1ul, bits / 8}) {
        std::vector<uint32_t> want;
        BatchWithinDistance(query, store, h, &want);
        for (Backend backend : BackendsUnderTest()) {
          ScopedBackend pin(backend);
          std::vector<uint32_t> got;
          BatchWithinDistance(query, v, h, &got);
          ASSERT_EQ(got, want) << BackendName(backend) << " bits=" << bits
                               << " step=" << step << " h=" << h;
        }
      }
    }
  }
}

TEST(Kernels, VerticalWithinDistanceMatchesScalarEverywhere) {
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    for (std::size_t bits : kLengths) {
      for (std::size_t n : {0ul, 1ul, 511ul, 512ul, 513ul, 1500ul}) {
        auto codes = RandomCodes(n, bits, /*seed=*/bits * 131 + n,
                                 /*clusters=*/6);
        auto store = CodeStore::FromCodes(codes).ValueOrDie();
        VerticalCodeStore v;
        v.AssignTransposed(store);
        auto query = RandomCodes(1, bits, /*seed=*/bits + 3 * n)[0];
        for (std::size_t h :
             {0ul, 1ul, 3ul, bits / 8, bits / 4, bits - 1, bits}) {
          std::vector<uint32_t> expected;
          for (std::size_t i = 0; i < n; ++i) {
            if (codes[i].WithinDistance(query, h)) {
              expected.push_back(static_cast<uint32_t>(i));
            }
          }
          std::vector<uint32_t> slots;
          VerticalScanStats stats;
          BatchWithinDistance(query, v, h, &slots, &stats);
          ASSERT_EQ(slots, expected) << BackendName(backend) << " bits="
                                     << bits << " n=" << n << " h=" << h;
          EXPECT_EQ(stats.blocks_scanned, v.num_blocks());
          EXPECT_LE(stats.blocks_pruned, stats.blocks_scanned);
          EXPECT_LE(stats.planes_scanned, stats.blocks_scanned * bits);
        }
      }
    }
  }
}

TEST(Kernels, VerticalBackendsAgreeOnClusteredData) {
  // Clustered codes concentrate matches in a few blocks, exercising the
  // prune/no-prune split; every backend must agree with portable.
  const std::size_t bits = 256;
  auto codes = RandomCodes(3000, bits, /*seed=*/77, /*clusters=*/3);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  VerticalCodeStore v;
  v.AssignTransposed(store);
  auto query = codes[123];
  query.FlipBit(5);
  for (std::size_t h : {2ul, 16ul, 64ul}) {
    std::vector<uint32_t> portable;
    {
      ScopedBackend pin(Backend::kPortable);
      BatchWithinDistance(query, v, h, &portable);
    }
    for (Backend backend : BackendsUnderTest()) {
      ScopedBackend pin(backend);
      std::vector<uint32_t> got;
      BatchWithinDistance(query, v, h, &got);
      EXPECT_EQ(got, portable) << BackendName(backend) << " h=" << h;
    }
  }
}

TEST(Kernels, ChooseLayoutHeuristic) {
  // Vertical only pays off for big stores with selective radii.
  EXPECT_EQ(ChooseLayout(128, 8, 1 << 20), KernelLayout::kVertical);
  EXPECT_EQ(ChooseLayout(128, 8, kVerticalMinCodes), KernelLayout::kVertical);
  EXPECT_EQ(ChooseLayout(128, 8, kVerticalMinCodes - 1),
            KernelLayout::kHorizontal);
  EXPECT_EQ(ChooseLayout(128, 17, 1 << 20), KernelLayout::kHorizontal);
  EXPECT_EQ(ChooseLayout(64, 8, 1 << 20), KernelLayout::kVertical);
  EXPECT_EQ(ChooseLayout(64, 9, 1 << 20), KernelLayout::kHorizontal);
}

TEST(Kernels, VerticalScanSharedAcrossThreads) {
  // Read-only concurrent scans over one shared mirror: exercised under
  // TSan by scripts/check.sh. Each thread gets its own output vector.
  const std::size_t bits = 128;
  auto codes = RandomCodes(2000, bits, /*seed=*/21, /*clusters=*/4);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  VerticalCodeStore v;
  v.AssignTransposed(store);
  std::vector<uint32_t> expected;
  auto query = RandomCodes(1, bits, /*seed=*/22)[0];
  BatchWithinDistance(query, store, 24, &expected);
  ThreadPool pool(4);
  std::vector<std::vector<uint32_t>> got(16);
  ParallelFor(&pool, got.size(), [&](std::size_t i) {
    BatchWithinDistance(query, v, 24, &got[i]);
  });
  for (const auto& g : got) EXPECT_EQ(g, expected);
}

// ---------------------------------------------------------------------------
// CodeSet: the one owner of both layouts. Every entry is checked against
// scalar BinaryCode::Distance under every backend, across widths, sizes
// on both sides of kVerticalMinCodes, and radii on both sides of bits/8.
// ---------------------------------------------------------------------------

const std::size_t kSetWidths[] = {1, 31, 32, 63, 64, 65, 128, 225, 512};

// Every (slot, distance) within h of `query`, in ascending slot order.
std::vector<SlotDistance> ScalarRange(const std::vector<BinaryCode>& codes,
                                      const BinaryCode& query,
                                      std::size_t h) {
  std::vector<SlotDistance> out;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const auto d = static_cast<uint32_t>(codes[i].Distance(query));
    if (d <= h) out.push_back({static_cast<uint32_t>(i), d});
  }
  return out;
}

// The k nearest (slot, distance) in ascending (distance, slot) order.
std::vector<SlotDistance> ScalarKnn(const std::vector<BinaryCode>& codes,
                                    const BinaryCode& query, std::size_t k) {
  std::vector<std::pair<uint32_t, uint32_t>> ranked;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ranked.emplace_back(static_cast<uint32_t>(codes[i].Distance(query)),
                        static_cast<uint32_t>(i));
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::min(k, ranked.size()));
  std::vector<SlotDistance> out;
  for (const auto& [d, slot] : ranked) out.push_back({slot, d});
  return out;
}

// The plane copy is present exactly when expected and, when present, is
// the transpose of the word lanes.
::testing::AssertionResult PlanesInStep(const CodeSet& set, bool expected) {
  if ((set.planes() != nullptr) != expected) {
    return ::testing::AssertionFailure()
           << "plane copy " << (expected ? "missing" : "unexpected")
           << " at size " << set.size();
  }
  if (expected && !set.planes()->IsTransposeOf(set.words())) {
    return ::testing::AssertionFailure()
           << "plane copy diverged from the words at size " << set.size();
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// The block-major multi-query plane scan: every query of a batch must get
// the slots and all three VerticalScanStats fields it gets from a scan of
// its own (a group of one), and the slots of a scalar loop.
// ---------------------------------------------------------------------------

const std::size_t kSharedPassSizes[] = {4096, 4796};  // 4796: a tail block

// nq distinct queries within a few bits of stored codes, in shuffled
// order, each with a radius the layout rule sends to the planes
// (h * 8 <= bits). Drawn from [0, bits/8], the radii both share and mix
// counter-plane counts across a batch of up to nine.
struct PlaneBatch {
  std::vector<BinaryCode> codes;
  std::vector<std::size_t> radii;
};

PlaneBatch MakePlaneBatch(const std::vector<BinaryCode>& stored,
                          std::size_t nq, Rng* rng) {
  const std::size_t bits = stored.front().size();
  // Narrow widths have fewer distinct codes than a batch holds.
  const std::size_t distinct =
      bits >= 4 ? nq : std::min<std::size_t>(nq, std::size_t{1} << bits);
  PlaneBatch batch;
  while (batch.codes.size() < nq) {
    BinaryCode q = stored[static_cast<std::size_t>(rng->UniformInt(
        0, static_cast<int64_t>(stored.size()) - 1))];
    for (int64_t f = rng->UniformInt(0, 2); f > 0; --f) {
      q.FlipBit(static_cast<std::size_t>(
          rng->UniformInt(0, static_cast<int64_t>(bits) - 1)));
    }
    if (batch.codes.size() < distinct &&
        std::find(batch.codes.begin(), batch.codes.end(), q) !=
            batch.codes.end()) {
      continue;
    }
    batch.codes.push_back(q);
    batch.radii.push_back(static_cast<std::size_t>(
        rng->UniformInt(0, static_cast<int64_t>(bits / 8))));
  }
  return batch;
}

::testing::AssertionResult SameStats(const VerticalScanStats& got,
                                     const VerticalScanStats& want) {
  if (got.planes_scanned == want.planes_scanned &&
      got.blocks_pruned == want.blocks_pruned &&
      got.blocks_skipped == want.blocks_skipped &&
      got.blocks_scanned == want.blocks_scanned) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "planes/pruned/skipped/blocks " << got.planes_scanned << "/"
         << got.blocks_pruned << "/" << got.blocks_skipped << "/"
         << got.blocks_scanned << " vs " << want.planes_scanned << "/"
         << want.blocks_pruned << "/" << want.blocks_skipped << "/"
         << want.blocks_scanned;
}

// The counters a plane scan of `query` must report over a store that
// AssignTransposed built from `codes`, worked out lane by lane. First the
// summaries: a 64-lane group whose uniform planes differ from the query
// in more than h bits starts dead, and a block with no live group is
// pruned and skipped with no plane read. Then the planes: a lane dies in
// the pair holding its (h+1)-th mismatching plane, a block dies in the
// pair where its last live lane does (a death in the odd trailing plane
// is not a prune), and a scan reads every plane up to and including that
// pair.
// Lower bound per (block, lane group) on the distance from `query` to
// the group's codes: its mismatches on the group's uniform planes.
std::vector<std::size_t> SummaryBounds(
    const std::vector<std::pair<uint64_t, uint64_t>>& summaries,
    const BinaryCode& query) {
  const std::size_t words = (query.size() + 63) / 64;
  std::vector<std::size_t> bounds(summaries.size() / words, 0);
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const auto [agree, value] = summaries[i];
    bounds[i / words] += static_cast<std::size_t>(
        std::popcount((query.words()[i % words] ^ value) & agree));
  }
  return bounds;
}

// ExactSummary of every (block, group, word) holding codes, in that
// order, with the words of a group innermost.
std::vector<std::pair<uint64_t, uint64_t>> ExactSummaries(
    const std::vector<BinaryCode>& codes) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  const std::size_t words = (codes.front().size() + 63) / 64;
  for (std::size_t lo = 0; lo < codes.size(); lo += 64) {
    for (std::size_t w = 0; w < words; ++w) {
      out.push_back(ExactSummary(codes, lo / VerticalCodeStore::kBlockCodes,
                                 lo % VerticalCodeStore::kBlockCodes / 64, w));
    }
  }
  return out;
}

VerticalScanStats ReferencePlaneStats(
    const std::vector<BinaryCode>& codes,
    const std::vector<std::pair<uint64_t, uint64_t>>& summaries,
    const BinaryCode& query, std::size_t h) {
  const std::vector<std::size_t> bounds = SummaryBounds(summaries, query);
  VerticalScanStats want;
  const std::size_t bits = query.size();
  const std::size_t pair_planes = bits - bits % 2;
  for (std::size_t base = 0; base < codes.size();
       base += VerticalCodeStore::kBlockCodes) {
    ++want.blocks_scanned;
    if (h >= bits) continue;  // the all-slots shortcut reads no plane
    const std::size_t end =
        std::min(codes.size(), base + VerticalCodeStore::kBlockCodes);
    std::vector<bool> live_group(VerticalCodeStore::kWordsPerPlane, false);
    bool any_live = false;
    for (std::size_t g = 0; base + g * 64 < end; ++g) {
      live_group[g] = bounds[(base + g * 64) / 64] <= h;
      any_live = any_live || live_group[g];
    }
    if (!any_live) {
      ++want.blocks_pruned;
      ++want.blocks_skipped;
      continue;
    }
    std::size_t block_death = 0;  // planes read by the pair it died in
    for (std::size_t i = base; i < end && block_death <= pair_planes; ++i) {
      if (!live_group[(i - base) / 64]) continue;
      std::size_t mismatches = 0;
      std::size_t p = 0;
      for (; p < bits && mismatches <= h; ++p) {
        mismatches += codes[i].GetBit(p) != query.GetBit(p) ? 1 : 0;
      }
      const bool dies_in_pair = mismatches > h && p <= pair_planes;
      block_death = std::max(block_death,
                             dies_in_pair ? (p + 1) / 2 * 2 : pair_planes + 1);
    }
    if (block_death <= pair_planes) {
      ++want.blocks_pruned;
      want.planes_scanned += block_death;
    } else {
      want.planes_scanned += bits;
    }
  }
  return want;
}

// The stores the shared-pass test runs over: clustered codes in arrival
// order, where few planes are uniform over a group, and clustered and
// uniform codes in prefix order, where the summaries skip blocks.
enum class StoreOrder { kClusteredArrival, kClusteredSorted, kUniformSorted };

std::vector<BinaryCode> SharedPassCodes(std::size_t n, std::size_t bits,
                                        StoreOrder order) {
  const uint64_t seed = bits * 31 + n;
  if (order == StoreOrder::kUniformSorted) {
    return PrefixSorted(RandomCodes(n, bits, seed));
  }
  auto codes = RandomCodes(n, bits, seed, /*clusters=*/6,
                           std::max<std::size_t>(2, bits / 16));
  if (order == StoreOrder::kClusteredSorted) {
    codes = PrefixSorted(std::move(codes));
  }
  return codes;
}

TEST(Kernels, VerticalMultiScanMatchesGroupsOfOne) {
  uint64_t skipped = 0;
  for (std::size_t bits : kSetWidths) {
    for (std::size_t n : kSharedPassSizes) {
      for (StoreOrder order :
           {StoreOrder::kClusteredArrival, StoreOrder::kClusteredSorted,
            StoreOrder::kUniformSorted}) {
        auto codes = SharedPassCodes(n, bits, order);
        const auto summaries = ExactSummaries(codes);
        auto store = CodeStore::FromCodes(codes).ValueOrDie();
        VerticalCodeStore v;
        v.AssignTransposed(store);
        for (Backend backend : BackendsUnderTest()) {
          ScopedBackend pin(backend);
          Rng rng(bits * 7 + n + static_cast<uint64_t>(order));
          for (std::size_t nq = 1; nq <= 9; ++nq) {
            PlaneBatch batch = MakePlaneBatch(codes, nq, &rng);
            // One radius at or past the width takes the all-slots shortcut.
            if (nq == 9) batch.radii[4] = bits;
            std::vector<std::vector<uint32_t>> slots(nq);
            std::vector<VerticalScanStats> stats(nq);
            std::vector<VerticalQuery> scans;
            for (std::size_t q = 0; q < nq; ++q) {
              scans.push_back(
                  {&batch.codes[q], batch.radii[q], &slots[q], &stats[q]});
            }
            MultiWithinDistance(v, scans.data(), scans.size());
            for (std::size_t q = 0; q < nq; ++q) {
              const std::size_t h = batch.radii[q];
              std::vector<uint32_t> alone;
              VerticalScanStats alone_stats;
              BatchWithinDistance(batch.codes[q], v, h, &alone, &alone_stats);
              std::vector<uint32_t> scalar;
              for (const SlotDistance& hit :
                   ScalarRange(codes, batch.codes[q], h)) {
                scalar.push_back(hit.slot);
              }
              ASSERT_EQ(slots[q], alone)
                  << BackendName(backend) << " bits=" << bits << " n=" << n
                  << " nq=" << nq << " q=" << q << " h=" << h;
              ASSERT_EQ(slots[q], scalar)
                  << BackendName(backend) << " bits=" << bits << " n=" << n
                  << " nq=" << nq << " q=" << q << " h=" << h;
              EXPECT_TRUE(SameStats(stats[q], alone_stats))
                  << BackendName(backend) << " bits=" << bits << " n=" << n
                  << " nq=" << nq << " q=" << q << " h=" << h;
              EXPECT_TRUE(SameStats(stats[q],
                                    ReferencePlaneStats(codes, summaries,
                                                        batch.codes[q], h)))
                  << BackendName(backend) << " bits=" << bits << " n=" << n
                  << " order=" << static_cast<int>(order) << " nq=" << nq
                  << " q=" << q << " h=" << h;
              skipped += stats[q].blocks_skipped;
            }
          }
        }
      }
    }
  }
  // The sorted stores must actually exercise the skip.
  EXPECT_GT(skipped, 0u);
}

TEST(Kernels, VerticalSharedGroupKeepsPerQueryCounters) {
  // A stored code and its complement share a counter-plane count, so they
  // run in one group. The complement dies within the first planes of every
  // block while the stored code reads further, and each must still be
  // charged exactly the planes and pruned blocks of a scan of its own.
  const std::size_t bits = 64;
  auto codes = RandomCodes(4096, bits, /*seed=*/5, /*clusters=*/4);
  auto store = CodeStore::FromCodes(codes).ValueOrDie();
  VerticalCodeStore v;
  v.AssignTransposed(store);
  const BinaryCode& near = codes[0];
  BinaryCode far = near;
  for (std::size_t p = 0; p < bits; ++p) far.FlipBit(p);
  const std::size_t h = 2;
  std::vector<uint32_t> near_slots;
  std::vector<uint32_t> far_slots;
  VerticalScanStats stats[2];
  const VerticalQuery scans[] = {{&near, h, &near_slots, &stats[0]},
                                 {&far, h, &far_slots, &stats[1]}};
  for (Backend backend : BackendsUnderTest()) {
    ScopedBackend pin(backend);
    near_slots.clear();
    far_slots.clear();
    stats[0] = stats[1] = VerticalScanStats{};
    MultiWithinDistance(v, scans, 2);
    std::vector<uint32_t> alone;
    VerticalScanStats near_alone;
    VerticalScanStats far_alone;
    BatchWithinDistance(near, v, h, &alone, &near_alone);
    EXPECT_EQ(near_slots, alone) << BackendName(backend);
    alone.clear();
    BatchWithinDistance(far, v, h, &alone, &far_alone);
    EXPECT_EQ(far_slots, alone) << BackendName(backend);
    EXPECT_TRUE(SameStats(stats[0], near_alone)) << BackendName(backend);
    EXPECT_TRUE(SameStats(stats[1], far_alone)) << BackendName(backend);
    EXPECT_GT(stats[0].planes_scanned, stats[1].planes_scanned);
    EXPECT_EQ(near_slots.front(), 0u);
  }
}

TEST(CodeSet, RangeEntriesMatchScalarAcrossWidthsSizesAndRadii) {
  const std::size_t sizes[] = {0, 5, kVerticalMinCodes - 1, kVerticalMinCodes,
                               kVerticalMinCodes + 700};
  for (std::size_t bits : kSetWidths) {
    for (std::size_t n : sizes) {
      const std::size_t flips = std::max<std::size_t>(2, bits / 16);
      auto codes = RandomCodes(n, bits, /*seed=*/bits * 7919 + n,
                               /*clusters=*/6, flips);
      const auto set = CodeSet::FromCodes(codes).ValueOrDie();
      ASSERT_EQ(set.size(), n);
      ASSERT_TRUE(PlanesInStep(set, n >= kVerticalMinCodes));
      // A stored code with its end bits flipped, so small radii hit.
      BinaryCode query = n > 0 ? codes[n / 2] : RandomCodes(1, bits, bits)[0];
      query.FlipBit(0);
      query.FlipBit(bits - 1);
      const std::vector<std::size_t> radii = {0, bits / 8, bits / 8 + 1, bits,
                                              bits + 3};
      const std::vector<const BinaryCode*> queries(radii.size(), &query);
      for (Backend backend : BackendsUnderTest()) {
        ScopedBackend pin(backend);
        std::vector<SetAnswer> multi;
        set.MultiWithinDistance(queries.data(), radii.data(), radii.size(),
                                &multi);
        ASSERT_EQ(multi.size(), radii.size());
        for (std::size_t r = 0; r < radii.size(); ++r) {
          const std::size_t h = radii[r];
          std::vector<SlotDistance> single;
          VerticalScanStats planes;
          ASSERT_TRUE(set.WithinDistance(query, h, &single, &planes).ok());
          ASSERT_TRUE(multi[r].status.ok());
          EXPECT_EQ(single, ScalarRange(codes, query, h))
              << BackendName(backend) << " bits=" << bits << " n=" << n
              << " h=" << h;
          EXPECT_EQ(multi[r].hits, single)
              << BackendName(backend) << " bits=" << bits << " n=" << n
              << " h=" << h;
          // The plane scan answers exactly the queries the layout rule
          // sends to it (n >= kVerticalMinCodes and h*8 <= bits); the
          // rest leave the plane counters at zero.
          const bool vertical = n >= kVerticalMinCodes && h * 8 <= bits;
          EXPECT_EQ(planes.blocks_scanned,
                    vertical ? set.planes()->num_blocks() : 0u)
              << "bits=" << bits << " n=" << n << " h=" << h;
          EXPECT_EQ(multi[r].planes.blocks_scanned, planes.blocks_scanned);
          EXPECT_EQ(multi[r].planes.planes_scanned, planes.planes_scanned);
        }
      }
    }
  }
}

TEST(CodeSet, MixedBatchMatchesSingleQueries) {
  // Batches of 1-9 plane-routed queries plus two word-lane queries and
  // one of the wrong width, in shuffled order: each answer, plane counters
  // included, must equal the query's own WithinDistance and the scalar
  // loop.
  for (std::size_t bits : kSetWidths) {
    for (std::size_t n : kSharedPassSizes) {
      auto codes = RandomCodes(n, bits, /*seed=*/bits * 131 + n,
                               /*clusters=*/6,
                               std::max<std::size_t>(2, bits / 16));
      const auto set = CodeSet::FromCodes(codes).ValueOrDie();
      const BinaryCode wrong(bits == 1 ? 2 : bits - 1);
      for (Backend backend : BackendsUnderTest()) {
        ScopedBackend pin(backend);
        Rng rng(bits * 3 + n);
        for (std::size_t nq = 1; nq <= 9; ++nq) {
          PlaneBatch batch = MakePlaneBatch(codes, nq, &rng);
          batch.codes.push_back(codes[1]);
          batch.radii.push_back(bits / 8 + 1);  // word lanes
          batch.codes.push_back(codes[2]);
          batch.radii.push_back(bits + 2);  // word lanes, every slot
          std::vector<std::size_t> order(batch.codes.size() + 1);
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          rng.Shuffle(&order);
          std::vector<const BinaryCode*> queries;
          std::vector<std::size_t> radii;
          for (std::size_t i : order) {
            const bool bad = i == batch.codes.size();
            queries.push_back(bad ? &wrong : &batch.codes[i]);
            radii.push_back(bad ? 0 : batch.radii[i]);
          }
          std::vector<SetAnswer> answers;
          set.MultiWithinDistance(queries.data(), radii.data(),
                                  queries.size(), &answers);
          ASSERT_EQ(answers.size(), queries.size());
          for (std::size_t q = 0; q < queries.size(); ++q) {
            if (queries[q] == &wrong) {
              EXPECT_TRUE(answers[q].status.IsInvalidArgument());
              EXPECT_TRUE(answers[q].hits.empty());
              continue;
            }
            const std::size_t h = radii[q];
            std::vector<SlotDistance> single;
            VerticalScanStats planes;
            ASSERT_TRUE(set.WithinDistance(*queries[q], h, &single, &planes)
                            .ok());
            ASSERT_TRUE(answers[q].status.ok());
            ASSERT_EQ(answers[q].hits, single)
                << BackendName(backend) << " bits=" << bits << " n=" << n
                << " nq=" << nq << " h=" << h;
            ASSERT_EQ(single, ScalarRange(codes, *queries[q], h))
                << BackendName(backend) << " bits=" << bits << " n=" << n
                << " h=" << h;
            EXPECT_TRUE(SameStats(answers[q].planes, planes))
                << BackendName(backend) << " bits=" << bits << " n=" << n
                << " nq=" << nq << " h=" << h;
            EXPECT_EQ(planes.blocks_scanned,
                      h * 8 <= bits ? set.planes()->num_blocks() : 0u);
          }
        }
      }
    }
  }
}

TEST(CodeSet, KnnMatchesScalarAndRefusesOtherWidths) {
  for (std::size_t bits : {31ul, 64ul, 225ul}) {
    for (std::size_t n : {0ul, 7ul, kVerticalMinCodes + 3}) {
      auto codes = RandomCodes(n, bits, /*seed=*/bits + n, /*clusters=*/6);
      const auto set = CodeSet::FromCodes(codes).ValueOrDie();
      auto queries =
          RandomCodes(4, bits, /*seed=*/bits * 3 + n, /*clusters=*/6);
      const BinaryCode wrong(bits + 1);
      const std::vector<const BinaryCode*> qptrs = {
          &queries[0], &wrong, &queries[1], &queries[2], &queries[3]};
      const std::vector<std::size_t> ks = {0, 3, 1, 10, n + 5};
      for (Backend backend : BackendsUnderTest()) {
        ScopedBackend pin(backend);
        std::vector<SetAnswer> got;
        set.MultiKnn(qptrs.data(), ks.data(), qptrs.size(), &got);
        ASSERT_EQ(got.size(), qptrs.size());
        // An empty set built from no codes has no width yet.
        EXPECT_EQ(got[1].status.IsInvalidArgument(), n > 0);
        for (std::size_t q : {0ul, 2ul, 3ul, 4ul}) {
          ASSERT_TRUE(got[q].status.ok());
          EXPECT_EQ(got[q].hits, ScalarKnn(codes, *qptrs[q], ks[q]))
              << BackendName(backend) << " bits=" << bits << " n=" << n
              << " q=" << q;
        }
      }
    }
  }
}

TEST(CodeSet, WidthIsFixedByResetOrFirstAppend) {
  CodeSet set;
  std::vector<SlotDistance> hits;
  // No width yet: any query is answered, with no hits.
  EXPECT_TRUE(set.WithinDistance(BinaryCode(64), 3, &hits).ok());
  EXPECT_TRUE(hits.empty());
  ASSERT_TRUE(set.Append(BinaryCode(64)).ok());
  EXPECT_EQ(set.bits(), 64u);
  // A refused append leaves the set unchanged.
  EXPECT_TRUE(set.Append(BinaryCode(32)).IsInvalidArgument());
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(
      set.WithinDistance(BinaryCode(32), 3, &hits).IsInvalidArgument());
  // Reset fixes a new width, which even the empty set enforces.
  set.Reset(32);
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(
      set.WithinDistance(BinaryCode(64), 3, &hits).IsInvalidArgument());
  EXPECT_TRUE(set.Append(BinaryCode(64)).IsInvalidArgument());
  ASSERT_TRUE(set.Append(BinaryCode(32)).ok());
  // In the multi entry a query of the wrong width fails alone.
  const BinaryCode good(32);
  const BinaryCode bad(31);
  const std::vector<const BinaryCode*> queries = {&good, &bad, &good};
  const std::vector<std::size_t> radii = {0, 0, 32};
  std::vector<SetAnswer> answers;
  set.MultiWithinDistance(queries.data(), radii.data(), queries.size(),
                          &answers);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_TRUE(answers[0].status.ok());
  EXPECT_EQ(answers[0].hits.size(), 1u);
  EXPECT_TRUE(answers[1].status.IsInvalidArgument());
  EXPECT_TRUE(answers[1].hits.empty());
  EXPECT_TRUE(answers[2].status.ok());
  EXPECT_EQ(answers[2].hits.size(), 1u);
}

TEST(CodeSet, ChurnAcrossTheFloorKeepsLayoutsInStep) {
  for (std::size_t bits : {64ul, 65ul}) {
    auto pool = RandomCodes(512, bits, /*seed=*/bits + 101, /*clusters=*/8,
                            /*flip_bits=*/6);
    Rng rng(bits * 13);
    CodeSet set(bits);
    std::vector<BinaryCode> model;
    bool reached = false;  // the floor was reached since the last Reset
    auto check_queries = [&] {
      const BinaryCode& q = pool[model.size() % pool.size()];
      for (std::size_t h : {bits / 8, bits / 8 + 1}) {
        std::vector<SlotDistance> hits;
        ASSERT_TRUE(set.WithinDistance(q, h, &hits).ok());
        ASSERT_EQ(hits, ScalarRange(model, q, h))
            << "bits=" << bits << " size=" << model.size() << " h=" << h;
      }
    };
    // Grow past the floor, shrink back below it (the plane copy stays),
    // grow past it again, Reset (the copy goes), then grow a little.
    const std::size_t targets[] = {kVerticalMinCodes + 60,
                                   kVerticalMinCodes - 100,
                                   kVerticalMinCodes + 100, 0, 200};
    for (std::size_t target : targets) {
      if (target == 0) {
        set.Reset(bits);
        model.clear();
        reached = false;
        ASSERT_TRUE(PlanesInStep(set, false));
        continue;
      }
      const bool growing = model.size() < target;
      std::size_t step = 0;
      while (model.size() != target) {
        // Mostly toward the target, sometimes against it.
        const bool append =
            model.empty() || rng.Bernoulli(growing ? 0.75 : 0.25);
        if (append) {
          const BinaryCode& code = pool[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
          ASSERT_TRUE(set.Append(code).ok());
          model.push_back(code);
        } else {
          const auto i = static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<int64_t>(model.size()) - 1));
          set.SwapRemove(i);
          model[i] = model.back();
          model.pop_back();
        }
        reached = reached || model.size() >= kVerticalMinCodes;
        ASSERT_EQ(set.size(), model.size());
        ASSERT_TRUE(PlanesInStep(set, reached)) << "bits=" << bits;
        if (++step % 211 == 0) check_queries();
      }
      check_queries();
      for (std::size_t i = 0; i < model.size(); i += 97) {
        ASSERT_EQ(set.Get(i), model[i]) << "slot " << i;
      }
    }
  }
}

TEST(CodeSet, SharedAcrossThreads) {
  // Readers share one const set without locks: no const call builds or
  // changes a layout. scripts/check.sh runs this under TSan.
  const std::size_t bits = 64;
  auto codes = RandomCodes(kVerticalMinCodes + 500, bits, /*seed=*/41,
                           /*clusters=*/8);
  const auto set = CodeSet::FromCodes(codes).ValueOrDie();
  // Ten plane-routed radii over four counter-plane counts, and two the
  // tile pass takes.
  const std::size_t kRadii[] = {3, 12, 0, 8, 5, 3, 1, 12, 7, 2, 4, 6};
  auto queries = RandomCodes(std::size(kRadii), bits, /*seed=*/43,
                             /*clusters=*/8);
  std::vector<const BinaryCode*> qptrs;
  std::vector<std::size_t> radii;
  for (const auto& q : queries) {
    radii.push_back(kRadii[qptrs.size()]);
    qptrs.push_back(&q);
  }
  const std::vector<std::size_t> ks(queries.size(), 5);
  std::vector<SetAnswer> want_range;
  std::vector<SetAnswer> want_knn;
  set.MultiWithinDistance(qptrs.data(), radii.data(), qptrs.size(),
                          &want_range);
  set.MultiKnn(qptrs.data(), ks.data(), qptrs.size(), &want_knn);

  constexpr std::size_t kTasks = 16;
  std::vector<std::vector<SetAnswer>> got_range(kTasks);
  std::vector<std::vector<SetAnswer>> got_knn(kTasks);
  std::vector<std::vector<SlotDistance>> got_single(kTasks);
  std::vector<Status> single_status(kTasks);
  ThreadPool pool(4);
  ParallelFor(&pool, kTasks, [&](std::size_t t) {
    set.MultiWithinDistance(qptrs.data(), radii.data(), qptrs.size(),
                            &got_range[t]);
    set.MultiKnn(qptrs.data(), ks.data(), qptrs.size(), &got_knn[t]);
    const std::size_t q = t % queries.size();
    single_status[t] =
        set.WithinDistance(queries[q], radii[q], &got_single[t]);
  });
  for (std::size_t t = 0; t < kTasks; ++t) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(got_range[t][q].hits, want_range[q].hits) << "task " << t;
      EXPECT_TRUE(SameStats(got_range[t][q].planes, want_range[q].planes))
          << "task " << t;
      EXPECT_EQ(got_knn[t][q].hits, want_knn[q].hits) << "task " << t;
    }
    EXPECT_TRUE(single_status[t].ok());
    EXPECT_EQ(got_single[t], want_range[t % queries.size()].hits);
  }
}

TEST(LocalCounters, MergeLocalMatchesPerRecordAdds) {
  // The batched counter path must produce totals byte-identical to the
  // contended per-record pattern it replaced.
  mr::Counters direct;
  mr::Counters batched;
  mr::LocalCounters local_a;
  mr::LocalCounters local_b;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t delta = rng.UniformInt(0, 100);
    direct.Add(mr::kMapInputRecords, delta);
    (i % 2 ? local_a : local_b).Add(mr::CounterId::kMapInputRecords, delta);
    if (i % 3 == 0) {
      direct.Add("CUSTOM", 1);
      (i % 2 ? local_a : local_b).Add("CUSTOM", 1);
    }
  }
  direct.Add(mr::kShuffleBytes, 0);  // touched with zero total
  local_a.Add(mr::CounterId::kShuffleBytes, 0);
  batched.MergeLocal(local_a);
  batched.MergeLocal(local_b);
  EXPECT_EQ(batched.Snapshot(), direct.Snapshot());
  EXPECT_EQ(batched.Get(mr::kMapInputRecords),
            direct.Get(mr::kMapInputRecords));
  EXPECT_EQ(batched.Get("CUSTOM"), direct.Get("CUSTOM"));
}

TEST(LocalCounters, InternsWellKnownNames) {
  mr::LocalCounters local;
  local.Add(mr::kReduceInputGroups, 3);  // by name
  local.Add(mr::CounterId::kReduceInputGroups, 4);  // by id
  EXPECT_EQ(local.Get(mr::CounterId::kReduceInputGroups), 7);
  mr::Counters counters;
  counters.MergeLocal(local);
  EXPECT_EQ(counters.Get(mr::kReduceInputGroups), 7);
  auto snap = counters.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.begin()->first, mr::kReduceInputGroups);
}

}  // namespace
}  // namespace hamming::kernels
