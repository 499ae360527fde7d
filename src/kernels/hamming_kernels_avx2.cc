// AVX2 range kernels: XOR + vpshufb nibble-LUT popcount, four 64-bit
// code words per 256-bit vector. This translation unit is the only one
// compiled with -mavx2 (src/CMakeLists.txt adds the flag when the
// toolchain accepts it); callers reach it through the runtime dispatch
// in hamming_kernels.cc, which selects it only when the CPU reports
// AVX2. Results are bit-identical to the portable path — both are
// plain per-word popcounts, only the instruction schedule differs.
#include "kernels/hamming_kernels.h"

#if defined(HAMMING_HAVE_AVX2_TU)

#include <immintrin.h>

#include <algorithm>

#include "kernels/vertical_scan_inl.h"

namespace hamming::kernels::detail {

namespace {

// Per-64-bit-lane popcount of v: nibble lookup (vpshufb) + horizontal
// byte sum (vpsadbw). The classic Mula kernel.
inline __m256i Popcount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

}  // namespace

void BatchDistanceRangeAvx2(const CodeStore& store, const uint64_t* qwords,
                            std::size_t base, std::size_t len, uint32_t* out) {
  const std::size_t nw = store.words();
  std::size_t i = 0;
  // Eight codes (two vectors) per iteration; lanes are never overread —
  // the tail falls through to the scalar loop so callers may pass
  // unpadded ranges.
  for (; i + 8 <= len; i += 8) {
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    for (std::size_t w = 0; w < nw; ++w) {
      const __m256i q = _mm256_set1_epi64x(static_cast<long long>(qwords[w]));
      const uint64_t* lane = store.Lane(w) + base + i;
      const __m256i v0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lane));
      const __m256i v1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lane + 4));
      acc0 = _mm256_add_epi64(acc0, Popcount256(_mm256_xor_si256(v0, q)));
      acc1 = _mm256_add_epi64(acc1, Popcount256(_mm256_xor_si256(v1, q)));
    }
    alignas(32) uint64_t counts[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(counts), acc0);
    _mm256_store_si256(reinterpret_cast<__m256i*>(counts + 4), acc1);
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

void BatchXorPopcountAvx2(uint64_t query_word, const uint64_t* values,
                          std::size_t n, uint16_t* out) {
  const __m256i q = _mm256_set1_epi64x(static_cast<long long>(query_word));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i));
    const __m256i cnt = Popcount256(_mm256_xor_si256(v, q));
    alignas(32) uint64_t counts[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(counts), cnt);
    out[i] = static_cast<uint16_t>(counts[0]);
    out[i + 1] = static_cast<uint16_t>(counts[1]);
    out[i + 2] = static_cast<uint16_t>(counts[2]);
    out[i + 3] = static_cast<uint16_t>(counts[3]);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<uint16_t>(
        __builtin_popcountll(values[i] ^ query_word));
  }
}

void RangeHitsAvx2(const CodeStore& store, const uint64_t* qwords,
                   uint32_t h, std::size_t base, std::size_t len,
                   std::vector<SlotDistance>* hits) {
  const std::size_t nw = store.words();
  // Distances are at most 64*nw, far below 2^63, so the signed compare
  // is exact: acc <= h  <=>  !(acc > h).
  const __m256i hv = _mm256_set1_epi64x(static_cast<long long>(h));
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    for (std::size_t w = 0; w < nw; ++w) {
      const __m256i q = _mm256_set1_epi64x(static_cast<long long>(qwords[w]));
      const uint64_t* lane = store.Lane(w) + base + i;
      const __m256i v0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lane));
      const __m256i v1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lane + 4));
      acc0 = _mm256_add_epi64(acc0, Popcount256(_mm256_xor_si256(v0, q)));
      acc1 = _mm256_add_epi64(acc1, Popcount256(_mm256_xor_si256(v1, q)));
    }
    // Sign bit of each 64-bit lane of the cmpgt result, inverted: a set
    // bit means distance <= h. Hit extraction only runs on a nonzero
    // mask, which on selective radii is the rare case.
    const int over0 = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(acc0, hv)));
    const int over1 = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(acc1, hv)));
    const unsigned m =
        static_cast<unsigned>((~over0 & 0xf) | ((~over1 & 0xf) << 4));
    if (m != 0) {
      alignas(32) uint64_t counts[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(counts), acc0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(counts + 4), acc1);
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

// Two 256-bit vectors per plane row.
struct Avx2Ops {
  struct V {
    __m256i lo, hi;
  };
  static V Load(const uint64_t* row) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 4))};
  }
  static V Splat(uint64_t word) {
    const __m256i v = _mm256_set1_epi64x(static_cast<long long>(word));
    return {v, v};
  }
  static V Fill(bool ones) { return Splat(ones ? ~0ull : 0); }
  static V Xor(V a, V b) {
    return {_mm256_xor_si256(a.lo, b.lo), _mm256_xor_si256(a.hi, b.hi)};
  }
  static V And(V a, V b) {
    return {_mm256_and_si256(a.lo, b.lo), _mm256_and_si256(a.hi, b.hi)};
  }
  // ~a & b.
  static V AndNot(V a, V b) {
    return {_mm256_andnot_si256(a.lo, b.lo), _mm256_andnot_si256(a.hi, b.hi)};
  }
  // a & ~(b & c).
  static V AndNotBoth(V a, V b, V c) { return AndNot(And(b, c), a); }
  static V Xor3(V a, V b, V c) { return Xor(Xor(a, b), c); }
  // Majority, the full adder's carry.
  static V Maj(V a, V b, V c) {
    const V s = Xor(a, b);
    const V ab = And(a, b);
    const V cs = And(c, s);
    return {_mm256_or_si256(ab.lo, cs.lo), _mm256_or_si256(ab.hi, cs.hi)};
  }
  static bool Any(V a) {
    const __m256i any = _mm256_or_si256(a.lo, a.hi);
    return !_mm256_testz_si256(any, any);
  }
  static void Store(uint64_t* out, V a) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(out), a.lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(out + 4), a.hi);
  }
  // The valid lanes of the 64-lane groups set in `groups`: each group's
  // bit, isolated and compared, becomes an all-ones word.
  static V LoadGroups(const uint64_t* valid, unsigned groups) {
    const __m256i sel_lo = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i sel_hi = _mm256_setr_epi64x(16, 32, 64, 128);
    const __m256i bits = _mm256_set1_epi64x(groups);
    const V v = Load(valid);
    return {_mm256_and_si256(
                v.lo, _mm256_cmpeq_epi64(_mm256_and_si256(bits, sel_lo),
                                         sel_lo)),
            _mm256_and_si256(
                v.hi, _mm256_cmpeq_epi64(_mm256_and_si256(bits, sel_hi),
                                         sel_hi))};
  }
  // The groups g whose summed popcount((q ^ value) & agree) is <= h,
  // with the nibble-LUT popcount. Sums stay below 2^63, so the signed
  // compare is exact.
  static unsigned SummaryGroups(const uint64_t* summary,
                                const uint64_t* qwords, std::size_t words,
                                uint64_t h) {
    __m256i lo = _mm256_setzero_si256();
    __m256i hi = _mm256_setzero_si256();
    for (std::size_t w = 0; w < words; ++w) {
      const V agree = Load(summary + 2 * w * 8);
      const V value = Load(summary + (2 * w + 1) * 8);
      const V q = Splat(qwords[w]);
      lo = _mm256_add_epi64(
          lo, Popcount256(_mm256_and_si256(
                  _mm256_xor_si256(q.lo, value.lo), agree.lo)));
      hi = _mm256_add_epi64(
          hi, Popcount256(_mm256_and_si256(
                  _mm256_xor_si256(q.hi, value.hi), agree.hi)));
    }
    const __m256i hv = _mm256_set1_epi64x(static_cast<long long>(h));
    const int over_lo = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(lo, hv)));
    const int over_hi = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(hi, hv)));
    return ~static_cast<unsigned>(over_lo | (over_hi << 4)) & 0xffu;
  }
};

}  // namespace

// Vertical (bit-sliced) threshold scan, AVX2 form: the block-major
// multi-query scan of vertical_scan_inl.h with each plane row held in two
// 256-bit vectors.
void VerticalMultiScanAvx2(const VerticalCodeStore& store,
                           PlaneQuery* queries, std::size_t nq) {
  MultiScan<Avx2Ops>(store, queries, nq);
}

}  // namespace hamming::kernels::detail

#endif  // HAMMING_HAVE_AVX2_TU
