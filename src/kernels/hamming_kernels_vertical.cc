// Portable vertical (bit-sliced) threshold scan: vertical_scan_inl.h's
// block-major multi-query scan over plane rows of eight 64-bit words.
#include <bit>
#include <cstdint>
#include <cstring>

#if defined(__GNUC__) && !defined(__clang__)
// The scan passes 64-byte vectors by value only between functions of this
// translation unit (all with internal linkage), so GCC's note that such
// values change the AVX-512 calling convention does not apply.
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

#include "kernels/hamming_kernels.h"
#include "kernels/vertical_scan_inl.h"

namespace hamming::kernels::detail {

namespace {

// A plane row as a GCC vector of eight words: the compiler lowers each
// operation to whatever the baseline target has (SSE2 on x86-64).
struct PortableOps {
  using V = uint64_t __attribute__((vector_size(64)));
  static V Load(const uint64_t* row) {
    V v;
    std::memcpy(&v, row, sizeof(v));
    return v;
  }
  static V Splat(uint64_t word) { return V{} + word; }
  static V Fill(bool ones) { return Splat(ones ? ~0ull : 0); }
  static V Xor(V a, V b) { return a ^ b; }
  static V And(V a, V b) { return a & b; }
  static V AndNot(V a, V b) { return ~a & b; }
  static V AndNotBoth(V a, V b, V c) { return a & ~(b & c); }
  static V Xor3(V a, V b, V c) { return a ^ b ^ c; }
  static V Maj(V a, V b, V c) { return (a & b) | (c & (a ^ b)); }
  static bool Any(V a) {
    uint64_t any = 0;
    for (std::size_t g = 0; g < VerticalCodeStore::kWordsPerPlane; ++g) {
      any |= a[g];
    }
    return any != 0;
  }
  static void Store(uint64_t* out, V a) { std::memcpy(out, &a, sizeof(a)); }
  // The valid lanes of the 64-lane groups set in `groups`.
  static V LoadGroups(const uint64_t* valid, unsigned groups) {
    V v;
    for (std::size_t g = 0; g < VerticalCodeStore::kWordsPerPlane; ++g) {
      v[g] = ((groups >> g) & 1) != 0 ? valid[g] : 0;
    }
    return v;
  }
  // The groups g whose summed popcount((q ^ value) & agree) is <= h.
  static unsigned SummaryGroups(const uint64_t* summary,
                                const uint64_t* qwords, std::size_t words,
                                uint64_t h) {
    constexpr std::size_t kW = VerticalCodeStore::kWordsPerPlane;
    uint64_t dist[kW] = {};
    for (std::size_t w = 0; w < words; ++w) {
      const uint64_t* agree = summary + 2 * w * kW;
      const uint64_t* value = agree + kW;
      for (std::size_t g = 0; g < kW; ++g) {
        dist[g] += static_cast<uint64_t>(
            std::popcount((qwords[w] ^ value[g]) & agree[g]));
      }
    }
    unsigned groups = 0;
    for (std::size_t g = 0; g < kW; ++g) {
      groups |= (dist[g] <= h ? 1u : 0u) << g;
    }
    return groups;
  }
};

}  // namespace

void VerticalMultiScanPortable(const VerticalCodeStore& store,
                               PlaneQuery* queries, std::size_t nq) {
  MultiScan<PortableOps>(store, queries, nq);
}

}  // namespace hamming::kernels::detail
