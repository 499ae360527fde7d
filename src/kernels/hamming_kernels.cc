#include "kernels/hamming_kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "kernels/vertical_scan_inl.h"

namespace hamming::kernels {

// Range kernels defined by the AVX2 translation unit (compiled with
// -mavx2 when the toolchain supports it; see src/CMakeLists.txt).
#if defined(HAMMING_HAVE_AVX2_TU)
namespace detail {
void BatchDistanceRangeAvx2(const CodeStore& store, const uint64_t* qwords,
                            std::size_t base, std::size_t len, uint32_t* out);
void BatchXorPopcountAvx2(uint64_t query_word, const uint64_t* values,
                          std::size_t n, uint16_t* out);
void RangeHitsAvx2(const CodeStore& store, const uint64_t* qwords, uint32_t h,
                   std::size_t base, std::size_t len,
                   std::vector<SlotDistance>* hits);
void VerticalMultiScanAvx2(const VerticalCodeStore& store,
                           PlaneQuery* queries, std::size_t nq);
}  // namespace detail
#endif

// Range kernels defined by the AVX-512 translation unit (compiled with
// -mavx512f -mavx512bw -mavx512vpopcntdq when HAMMING_AVX512 is on).
#if defined(HAMMING_HAVE_AVX512_TU)
namespace detail {
void BatchDistanceRangeAvx512(const CodeStore& store, const uint64_t* qwords,
                              std::size_t base, std::size_t len,
                              uint32_t* out);
void RangeHitsAvx512(const CodeStore& store, const uint64_t* qwords,
                     uint32_t h, std::size_t base, std::size_t len,
                     std::vector<SlotDistance>* hits);
void VerticalMultiScanAvx512(const VerticalCodeStore& store,
                             PlaneQuery* queries, std::size_t nq);
}  // namespace detail
#endif

// Portable vertical scan (hamming_kernels_vertical.cc); always built.
namespace detail {
void VerticalMultiScanPortable(const VerticalCodeStore& store,
                               PlaneQuery* queries, std::size_t nq);
}  // namespace detail

namespace {

// ---- Portable range kernels ---------------------------------------------

// out[i] = distance(query, code base+i) for i in [0, len). Blocks of 8
// codes keep eight accumulators live while one query word streams
// against eight contiguous lane words — the form GCC keeps in registers.
void BatchDistanceRangePortable(const CodeStore& store, const uint64_t* qwords,
                                std::size_t base, std::size_t len,
                                uint32_t* out) {
  const std::size_t nw = store.words();
  if (nw == 1) {
    const uint64_t q0 = qwords[0];
    const uint64_t* lane = store.Lane(0) + base;
    for (std::size_t i = 0; i < len; ++i) {
      out[i] = static_cast<uint32_t>(std::popcount(lane[i] ^ q0));
    }
    return;
  }
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint32_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t w = 0; w < nw; ++w) {
      const uint64_t q = qwords[w];
      const uint64_t* lane = store.Lane(w) + base + i;
      for (std::size_t j = 0; j < 8; ++j) {
        acc[j] += static_cast<uint32_t>(std::popcount(lane[j] ^ q));
      }
    }
    std::copy_n(acc, 8, out + i);
  }
  for (; i < len; ++i) {
    uint32_t d = 0;
    for (std::size_t w = 0; w < nw; ++w) {
      d += static_cast<uint32_t>(std::popcount(store.Lane(w)[base + i] ^
                                               qwords[w]));
    }
    out[i] = d;
  }
}

void BatchXorPopcountPortable(uint64_t query_word, const uint64_t* values,
                              std::size_t n, uint16_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint16_t>(std::popcount(values[i] ^ query_word));
  }
}

// Fused range scan: appends (slot, distance) for every code in
// [base, base+len) within distance h, without materializing a dists[]
// array. Semantically BatchDistanceRange + a <= h filter.
void RangeHitsPortable(const CodeStore& store, const uint64_t* qwords,
                       uint32_t h, std::size_t base, std::size_t len,
                       std::vector<SlotDistance>* hits) {
  const std::size_t nw = store.words();
  if (nw == 1) {
    const uint64_t q0 = qwords[0];
    const uint64_t* lane = store.Lane(0) + base;
    for (std::size_t i = 0; i < len; ++i) {
      const uint32_t d = static_cast<uint32_t>(std::popcount(lane[i] ^ q0));
      if (d <= h) hits->push_back({static_cast<uint32_t>(base + i), d});
    }
    return;
  }
  for (std::size_t i = 0; i < len; ++i) {
    uint32_t d = 0;
    for (std::size_t w = 0; w < nw; ++w) {
      d += static_cast<uint32_t>(std::popcount(store.Lane(w)[base + i] ^
                                               qwords[w]));
    }
    if (d <= h) hits->push_back({static_cast<uint32_t>(base + i), d});
  }
}

// ---- Dispatch -----------------------------------------------------------

std::atomic<Backend> g_backend = [] {
#if defined(HAMMING_HAVE_AVX512_TU)
  if (Avx512Supported()) return Backend::kAvx512;
#endif
#if defined(HAMMING_HAVE_AVX2_TU)
  if (Avx2Supported()) return Backend::kAvx2;
#endif
  return Backend::kPortable;
}();

void BatchDistanceRange(const CodeStore& store, const uint64_t* qwords,
                        std::size_t base, std::size_t len, uint32_t* out) {
  if (len == 0) return;
  if (store.words() == 0) {
    std::fill_n(out, len, 0u);
    return;
  }
#if defined(HAMMING_HAVE_AVX512_TU)
  if (g_backend.load(std::memory_order_relaxed) == Backend::kAvx512) {
    detail::BatchDistanceRangeAvx512(store, qwords, base, len, out);
    return;
  }
#endif
#if defined(HAMMING_HAVE_AVX2_TU)
  if (g_backend.load(std::memory_order_relaxed) == Backend::kAvx2) {
    detail::BatchDistanceRangeAvx2(store, qwords, base, len, out);
    return;
  }
#endif
  BatchDistanceRangePortable(store, qwords, base, len, out);
}

// Backend dispatch for the fused range scan (mirrors BatchDistanceRange).
// A zero-word store (bits == 0) never enters the vector paths' lane loop,
// so every code matches at distance 0 on all tiers — same as the dists[]
// path would report.
void RangeHits(const CodeStore& store, const uint64_t* qwords, uint32_t h,
               std::size_t base, std::size_t len,
               std::vector<SlotDistance>* hits) {
  if (len == 0) return;
#if defined(HAMMING_HAVE_AVX512_TU)
  if (g_backend.load(std::memory_order_relaxed) == Backend::kAvx512) {
    detail::RangeHitsAvx512(store, qwords, h, base, len, hits);
    return;
  }
#endif
#if defined(HAMMING_HAVE_AVX2_TU)
  if (g_backend.load(std::memory_order_relaxed) == Backend::kAvx2) {
    detail::RangeHitsAvx2(store, qwords, h, base, len, hits);
    return;
  }
#endif
  RangeHitsPortable(store, qwords, h, base, len, hits);
}

// Runs the vertical scan on the active backend.
void VerticalMultiScan(const VerticalCodeStore& store,
                       detail::PlaneQuery* queries, std::size_t nq) {
#if defined(HAMMING_HAVE_AVX512_TU)
  if (g_backend.load(std::memory_order_relaxed) == Backend::kAvx512) {
    detail::VerticalMultiScanAvx512(store, queries, nq);
    return;
  }
#endif
#if defined(HAMMING_HAVE_AVX2_TU)
  if (g_backend.load(std::memory_order_relaxed) == Backend::kAvx2) {
    detail::VerticalMultiScanAvx2(store, queries, nq);
    return;
  }
#endif
  detail::VerticalMultiScanPortable(store, queries, nq);
}

// Tile size for the scratch-buffered scans: 1024 distances = 4 KB on the
// stack, small enough to stay L1-resident alongside the lanes.
constexpr std::size_t kTile = 1024;

}  // namespace

bool Avx2Supported() {
#if defined(HAMMING_HAVE_AVX2_TU) && defined(__x86_64__)
  // Explicit init: this is reachable from namespace-scope initializers
  // (g_backend), which may run before GCC's own cpu-model constructor.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool Avx512Supported() {
#if defined(HAMMING_HAVE_AVX512_TU) && defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vpopcntdq");
#else
  return false;
#endif
}

Backend ActiveBackend() { return g_backend.load(std::memory_order_relaxed); }

void SetBackend(Backend backend) {
  // Graceful degradation: an unsupported tier falls to the best one the
  // machine actually has.
  if (backend == Backend::kAvx512 && !Avx512Supported()) {
    backend = Backend::kAvx2;
  }
  if (backend == Backend::kAvx2 && !Avx2Supported()) {
    backend = Backend::kPortable;
  }
  g_backend.store(backend, std::memory_order_relaxed);
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kPortable:
      return "portable";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

KernelLayout ChooseLayout(std::size_t bits, std::size_t h, std::size_t n) {
  // Vertical wins when (a) the store amortizes the per-block counter
  // setup and (b) the radius is selective enough that plane pruning
  // fires early; h*8 <= bits tracks the measured crossover (see
  // EXPERIMENTS.md) across 64..512-bit codes.
  if (n >= kVerticalMinCodes && h * 8 <= bits) return KernelLayout::kVertical;
  return KernelLayout::kHorizontal;
}

void BatchDistance(const BinaryCode& query, const CodeStore& store,
                   uint32_t* out) {
  BatchDistanceRange(store, query.words().data(), 0, store.size(), out);
}

void BatchDistance(const BinaryCode& query, const CodeStore& store,
                   std::vector<uint32_t>* out) {
  out->resize(store.size());
  BatchDistance(query, store, out->data());
}

void BatchWithinDistance(const BinaryCode& query, const CodeStore& store,
                         std::size_t h, std::vector<uint32_t>* out_slots) {
  const std::size_t n = store.size();
  const uint32_t h32 = h > 0xffffffffull ? 0xffffffffu
                                         : static_cast<uint32_t>(h);
  uint32_t dists[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    const std::size_t len = std::min(kTile, n - base);
    BatchDistanceRange(store, query.words().data(), base, len, dists);
    for (std::size_t i = 0; i < len; ++i) {
      if (dists[i] <= h32) {
        out_slots->push_back(static_cast<uint32_t>(base + i));
      }
    }
  }
}

void BatchWithinDistance(const BinaryCode& query,
                         const VerticalCodeStore& store, std::size_t h,
                         std::vector<uint32_t>* out_slots,
                         VerticalScanStats* stats) {
  const VerticalQuery one{&query, h, out_slots, stats};
  MultiWithinDistance(store, &one, 1);
}

void MultiWithinDistance(const VerticalCodeStore& store,
                         const VerticalQuery* queries, std::size_t nq) {
  if (store.empty()) return;
  const std::size_t bits = store.bits();
  std::vector<const VerticalQuery*> scanned;
  for (std::size_t q = 0; q < nq; ++q) {
    const VerticalQuery& query = queries[q];
    if (query.h < bits) {
      scanned.push_back(&query);
      continue;
    }
    // Every code is within distance h; zero planes touched.
    for (std::size_t i = 0; i < store.size(); ++i) {
      query.slots->push_back(static_cast<uint32_t>(i));
    }
    if (query.stats != nullptr) {
      query.stats->blocks_scanned += store.num_blocks();
    }
  }
  if (scanned.empty()) return;
  // Ordered by counter-plane count (query order within a count), so each
  // block's survivors form groups that share one; qmask[p] is all-ones
  // when query bit p is set: the scan's mismatch row for plane p is
  // plane_row ^ qmask[p].
  std::stable_sort(scanned.begin(), scanned.end(),
                   [](const VerticalQuery* a, const VerticalQuery* b) {
                     return detail::CounterPlanes(a->h) <
                            detail::CounterPlanes(b->h);
                   });
  std::vector<uint64_t> qmasks(scanned.size() * bits);
  std::vector<detail::PlaneQuery> scans(scanned.size());
  for (std::size_t s = 0; s < scanned.size(); ++s) {
    const VerticalQuery& query = *scanned[s];
    uint64_t* qmask = qmasks.data() + s * bits;
    for (std::size_t p = 0; p < bits; ++p) {
      qmask[p] = query.code->GetBit(p) ? ~0ull : 0ull;
    }
    scans[s] = {qmask, query.code->words().data(), query.h,
                detail::CounterPlanes(query.h), query.slots};
  }
  VerticalMultiScan(store, scans.data(), scans.size());
  for (std::size_t s = 0; s < scanned.size(); ++s) {
    VerticalScanStats* stats = scanned[s]->stats;
    if (stats == nullptr) continue;
    stats->planes_scanned += scans[s].planes_read;
    stats->blocks_pruned += scans[s].blocks_pruned;
    stats->blocks_skipped += scans[s].blocks_skipped;
    stats->blocks_scanned += store.num_blocks();
  }
}

void BatchXorPopcount(uint64_t query_word, const uint64_t* values,
                      std::size_t n, uint16_t* out) {
#if defined(HAMMING_HAVE_AVX2_TU)
  // The AVX-512 tier reuses the AVX2 one-word kernel: n here is a node
  // fan-out, far too small for 512-bit vectors to pay off.
  const Backend b = g_backend.load(std::memory_order_relaxed);
  if (b == Backend::kAvx2 || b == Backend::kAvx512) {
    detail::BatchXorPopcountAvx2(query_word, values, n, out);
    return;
  }
#endif
  BatchXorPopcountPortable(query_word, values, n, out);
}

std::vector<std::pair<uint32_t, uint32_t>> BatchKnn(const BinaryCode& query,
                                                    const CodeStore& store,
                                                    std::size_t k) {
  std::vector<std::pair<uint32_t, uint32_t>> heap;  // (distance, slot) max-heap
  if (k == 0) return heap;
  heap.reserve(std::min(k, store.size()) + 1);
  auto cmp = [](const std::pair<uint32_t, uint32_t>& a,
                const std::pair<uint32_t, uint32_t>& b) {
    // Max-heap on (distance, slot): the root is the worst kept neighbour,
    // with the larger slot losing ties so the final set is deterministic.
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  };
  const std::size_t n = store.size();
  uint32_t dists[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    const std::size_t len = std::min(kTile, n - base);
    BatchDistanceRange(store, query.words().data(), base, len, dists);
    for (std::size_t i = 0; i < len; ++i) {
      const std::pair<uint32_t, uint32_t> cand{
          dists[i], static_cast<uint32_t>(base + i)};
      if (heap.size() < k) {
        heap.push_back(cand);
        std::push_heap(heap.begin(), heap.end(), cmp);
      } else if (cmp(cand, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), cmp);
        heap.back() = cand;
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
  std::sort_heap(heap.begin(), heap.end(), cmp);
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(heap.size());
  for (const auto& [d, slot] : heap) out.emplace_back(slot, d);
  return out;
}

void MultiWithinDistance(const CodeStore& store,
                         const BinaryCode* const* queries,
                         const std::size_t* radii, std::size_t nq,
                         std::vector<std::vector<SlotDistance>>* out_hits) {
  out_hits->assign(nq, {});
  const std::size_t n = store.size();
  if (n == 0 || nq == 0) return;
  for (std::size_t base = 0; base < n; base += kTile) {
    const std::size_t len = std::min(kTile, n - base);
    // The tile's lane words are hot in cache after the first query's
    // pass; the remaining nq-1 passes recompute distances from L1/L2
    // instead of re-streaming the store from memory. The fused RangeHits
    // kernel keeps the threshold compare in-register and touches memory
    // only for actual matches, so those re-passes cost a few
    // instructions per code — without the fusion the per-query scalar
    // unpack+filter would dominate and coalescing would buy nothing.
    for (std::size_t q = 0; q < nq; ++q) {
      const std::size_t h = radii[q];
      const uint32_t h32 =
          h > 0xffffffffull ? 0xffffffffu : static_cast<uint32_t>(h);
      RangeHits(store, queries[q]->words().data(), h32, base, len,
                &(*out_hits)[q]);
    }
  }
}

void MultiKnn(const CodeStore& store, const BinaryCode* const* queries,
              const std::size_t* ks, std::size_t nq,
              std::vector<std::vector<std::pair<uint32_t, uint32_t>>>* out) {
  out->assign(nq, {});
  if (nq == 0) return;
  auto cmp = [](const std::pair<uint32_t, uint32_t>& a,
                const std::pair<uint32_t, uint32_t>& b) {
    // Same (distance, slot) max-heap ordering as BatchKnn, so the final
    // neighbour sets are bit-identical to the single-query kernel.
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  };
  // heaps[q] holds (distance, slot) with the worst kept neighbour at the
  // root; O(sum ks) memory total.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> heaps(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    heaps[q].reserve(std::min(ks[q], store.size()) + 1);
  }
  const std::size_t n = store.size();
  uint32_t dists[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    const std::size_t len = std::min(kTile, n - base);
    for (std::size_t q = 0; q < nq; ++q) {
      const std::size_t k = ks[q];
      if (k == 0) continue;
      BatchDistanceRange(store, queries[q]->words().data(), base, len, dists);
      auto& heap = heaps[q];
      for (std::size_t i = 0; i < len; ++i) {
        const std::pair<uint32_t, uint32_t> cand{
            dists[i], static_cast<uint32_t>(base + i)};
        if (heap.size() < k) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end(), cmp);
        } else if (cmp(cand, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), cmp);
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end(), cmp);
        }
      }
    }
  }
  for (std::size_t q = 0; q < nq; ++q) {
    auto& heap = heaps[q];
    std::sort_heap(heap.begin(), heap.end(), cmp);
    auto& result = (*out)[q];
    result.reserve(heap.size());
    for (const auto& [d, slot] : heap) result.emplace_back(slot, d);
  }
}

}  // namespace hamming::kernels
