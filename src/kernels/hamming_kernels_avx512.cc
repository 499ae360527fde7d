// AVX-512 range kernels: native vpopcntq over eight 64-bit code words
// per 512-bit vector, and the vertical bit-sliced scan with one vector
// per plane row. This translation unit is the only one compiled with
// -mavx512f -mavx512bw -mavx512vpopcntdq (src/CMakeLists.txt, gated by
// the HAMMING_AVX512 option); the runtime dispatch in hamming_kernels.cc
// selects it only when the CPU reports all three features, so a binary
// built with this TU still runs (on the AVX2 or portable tier) on older
// machines.
#include "kernels/hamming_kernels.h"

#if defined(HAMMING_HAVE_AVX512_TU)

#include <immintrin.h>

#include <algorithm>

#include "kernels/vertical_scan_inl.h"

namespace hamming::kernels::detail {

namespace {

// ~a & b. Spelled with vpternlog (imm 0x0c = ~A & B) instead of
// _mm512_andnot_si512: GCC 12's andnot goes through
// _mm512_undefined_epi32 and trips -Wmaybe-uninitialized (PR 105593).
inline __m512i AndNot512(__m512i a, __m512i b) {
  return _mm512_ternarylogic_epi64(a, b, b, 0x0c);
}

}  // namespace

void BatchDistanceRangeAvx512(const CodeStore& store, const uint64_t* qwords,
                              std::size_t base, std::size_t len,
                              uint32_t* out) {
  const std::size_t nw = store.words();
  std::size_t i = 0;
  // Eight codes (one vector) per iteration; the tail falls through to a
  // scalar loop so callers may pass unpadded ranges.
  for (; i + 8 <= len; i += 8) {
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t w = 0; w < nw; ++w) {
      const __m512i q = _mm512_set1_epi64(static_cast<long long>(qwords[w]));
      const __m512i v = _mm512_loadu_si512(store.Lane(w) + base + i);
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_xor_si512(v, q)));
    }
    alignas(64) uint64_t counts[8];
    _mm512_store_si512(counts, acc);
    for (std::size_t j = 0; j < 8; ++j) {
      out[i + j] = static_cast<uint32_t>(counts[j]);
    }
  }
  for (; i < len; ++i) {
    uint32_t d = 0;
    for (std::size_t w = 0; w < nw; ++w) {
      d += static_cast<uint32_t>(
          __builtin_popcountll(store.Lane(w)[base + i] ^ qwords[w]));
    }
    out[i] = d;
  }
}

namespace {

// Appends the masked lanes of one 8-code distance vector. Out of line
// from the scan loops on purpose: it only runs on actual matches.
inline void EmitMasked512(__m512i dists, __mmask8 m, std::size_t slot0,
                          std::vector<SlotDistance>* hits) {
  alignas(64) uint64_t counts[8];
  _mm512_store_si512(counts, dists);
  for (std::size_t j = 0; j < 8; ++j) {
    if ((m >> j) & 1) {
      hits->push_back({static_cast<uint32_t>(slot0 + j),
                       static_cast<uint32_t>(counts[j])});
    }
  }
}

}  // namespace

void RangeHitsAvx512(const CodeStore& store, const uint64_t* qwords,
                     uint32_t h, std::size_t base, std::size_t len,
                     std::vector<SlotDistance>* hits) {
  const std::size_t nw = store.words();
  const __m512i hv = _mm512_set1_epi64(static_cast<long long>(h));
  std::size_t i = 0;
  if (nw == 1) {
    // One-word codes (<= 64 bits): the popcount IS the distance, so the
    // hot loop is four independent load+xor+popcnt+compare chains and a
    // single combined-mask branch per 32 codes. This path sets the
    // re-pass speed of a coalesced batch over an L1-hot tile, so it is
    // kept free of the general path's per-word inner loop and of any
    // accumulator dependency chain.
    const __m512i q = _mm512_set1_epi64(static_cast<long long>(qwords[0]));
    const uint64_t* lane = store.Lane(0) + base;
    for (; i + 32 <= len; i += 32) {
      const __m512i d0 = _mm512_popcnt_epi64(
          _mm512_xor_si512(_mm512_loadu_si512(lane + i), q));
      const __m512i d1 = _mm512_popcnt_epi64(
          _mm512_xor_si512(_mm512_loadu_si512(lane + i + 8), q));
      const __m512i d2 = _mm512_popcnt_epi64(
          _mm512_xor_si512(_mm512_loadu_si512(lane + i + 16), q));
      const __m512i d3 = _mm512_popcnt_epi64(
          _mm512_xor_si512(_mm512_loadu_si512(lane + i + 24), q));
      const __mmask8 m0 = _mm512_cmple_epu64_mask(d0, hv);
      const __mmask8 m1 = _mm512_cmple_epu64_mask(d1, hv);
      const __mmask8 m2 = _mm512_cmple_epu64_mask(d2, hv);
      const __mmask8 m3 = _mm512_cmple_epu64_mask(d3, hv);
      if ((m0 | m1 | m2 | m3) != 0) {
        EmitMasked512(d0, m0, base + i, hits);
        EmitMasked512(d1, m1, base + i + 8, hits);
        EmitMasked512(d2, m2, base + i + 16, hits);
        EmitMasked512(d3, m3, base + i + 24, hits);
      }
    }
    for (; i + 8 <= len; i += 8) {
      const __m512i d = _mm512_popcnt_epi64(
          _mm512_xor_si512(_mm512_loadu_si512(lane + i), q));
      const __mmask8 m = _mm512_cmple_epu64_mask(d, hv);
      if (m != 0) EmitMasked512(d, m, base + i, hits);
    }
    const uint64_t q0 = qwords[0];
    for (; i < len; ++i) {
      const uint32_t d =
          static_cast<uint32_t>(__builtin_popcountll(lane[i] ^ q0));
      if (d <= h) hits->push_back({static_cast<uint32_t>(base + i), d});
    }
    return;
  }
  // Fused distance + threshold: the compare stays in-register (vpcmpuq)
  // and the slow lane — spilling counts and appending hits — runs only
  // when the 8-code mask is nonzero, which on selective radii is almost
  // never. This is what lets a coalesced batch re-run the compute over
  // an L1-hot tile at a few instructions per code instead of paying the
  // scalar unpack+filter of the dists[] path per query.
  for (; i + 8 <= len; i += 8) {
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t w = 0; w < nw; ++w) {
      const __m512i q = _mm512_set1_epi64(static_cast<long long>(qwords[w]));
      const __m512i v = _mm512_loadu_si512(store.Lane(w) + base + i);
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_xor_si512(v, q)));
    }
    const __mmask8 m = _mm512_cmple_epu64_mask(acc, hv);
    if (m != 0) {
      alignas(64) uint64_t counts[8];
      _mm512_store_si512(counts, acc);
      for (std::size_t j = 0; j < 8; ++j) {
        if ((m >> j) & 1) {
          hits->push_back({static_cast<uint32_t>(base + i + j),
                           static_cast<uint32_t>(counts[j])});
        }
      }
    }
  }
  for (; i < len; ++i) {
    uint32_t d = 0;
    for (std::size_t w = 0; w < nw; ++w) {
      d += static_cast<uint32_t>(
          __builtin_popcountll(store.Lane(w)[base + i] ^ qwords[w]));
    }
    if (d <= h) hits->push_back({static_cast<uint32_t>(base + i), d});
  }
}

namespace {

// One 512-bit vector per plane row; vpternlog fuses the full adder's sum
// and carry into one instruction each.
struct Avx512Ops {
  using V = __m512i;
  static V Load(const uint64_t* row) { return _mm512_loadu_si512(row); }
  static V Splat(uint64_t word) {
    return _mm512_set1_epi64(static_cast<long long>(word));
  }
  static V Fill(bool ones) {
    return ones ? _mm512_set1_epi64(-1) : _mm512_setzero_si512();
  }
  static V Xor(V a, V b) { return _mm512_xor_si512(a, b); }
  static V And(V a, V b) { return _mm512_and_si512(a, b); }
  static V AndNot(V a, V b) { return AndNot512(a, b); }
  // a & ~(b & c).
  static V AndNotBoth(V a, V b, V c) {
    return _mm512_ternarylogic_epi64(a, b, c, 0x70);
  }
  static V Xor3(V a, V b, V c) {
    return _mm512_ternarylogic_epi64(a, b, c, 0x96);
  }
  // Majority, the full adder's carry.
  static V Maj(V a, V b, V c) {
    return _mm512_ternarylogic_epi64(a, b, c, 0xe8);
  }
  static bool Any(V a) {
    const __mmask16 m = _mm512_test_epi64_mask(a, a);
    return _mm512_kortestz(m, m) == 0;
  }
  static void Store(uint64_t* out, V a) { _mm512_store_si512(out, a); }
  // The valid lanes of the 64-lane groups set in `groups`.
  static V LoadGroups(const uint64_t* valid, unsigned groups) {
    return _mm512_maskz_loadu_epi64(static_cast<__mmask8>(groups), valid);
  }
  // The groups g whose summed popcount((q ^ value) & agree) is <= h: one
  // vpternlog (imm 0x28 = (A ^ B) & C) and one vpopcntq per code word
  // for all eight groups.
  static unsigned SummaryGroups(const uint64_t* summary,
                                const uint64_t* qwords, std::size_t words,
                                uint64_t h) {
    __m512i dist = _mm512_setzero_si512();
    for (std::size_t w = 0; w < words; ++w) {
      const __m512i agree = _mm512_loadu_si512(summary + 2 * w * 8);
      const __m512i value = _mm512_loadu_si512(summary + (2 * w + 1) * 8);
      dist = _mm512_add_epi64(
          dist, _mm512_popcnt_epi64(_mm512_ternarylogic_epi64(
                    Splat(qwords[w]), value, agree, 0x28)));
    }
    return _mm512_cmple_epu64_mask(
        dist, _mm512_set1_epi64(static_cast<long long>(h)));
  }
};

}  // namespace

// Vertical (bit-sliced) threshold scan, AVX-512 form: the block-major
// multi-query scan of vertical_scan_inl.h with one vector per plane row,
// so each query's counters and alive mask are single registers.
void VerticalMultiScanAvx512(const VerticalCodeStore& store,
                             PlaneQuery* queries, std::size_t nq) {
  MultiScan<Avx512Ops>(store, queries, nq);
}

}  // namespace hamming::kernels::detail

#endif  // HAMMING_HAVE_AVX512_TU
