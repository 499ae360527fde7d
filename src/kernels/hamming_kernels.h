// Batched Hamming-distance kernels over CodeStore lanes.
//
// Every routine here is semantically identical to a loop of scalar
// BinaryCode::Distance / WithinDistance calls — the differential test in
// tests/test_kernels.cc enforces bit-for-bit agreement — but processes
// 64-bit words across blocks of 8+ codes per inner loop over the
// word-stride lanes, so the per-code cost is one fused XOR+popcount per
// significant word with no per-code call, branch, or cache-line waste.
//
// Three implementations sit behind a runtime dispatch:
//  * portable — std::popcount over 8-code blocks; builds everywhere.
//  * AVX2 — vpshufb nibble-LUT popcount, 4 codes per 256-bit vector
//    (compiled only when the toolchain supports -mavx2, selected only
//    when the CPU reports AVX2).
//  * AVX-512 — vpopcntq, 8 codes per 512-bit vector (compiled only when
//    HAMMING_AVX512 resolves ON, selected only when the CPU reports
//    AVX-512F+BW+VPOPCNTDQ).
// SetBackend() pins one implementation; tests run the differential suite
// under every supported backend to prove they agree.
//
// Orthogonally to the backend, threshold queries run over one of two data
// layouts, and both serve a batch of queries in one pass over the store:
//  * horizontal — the CodeStore word lanes above: full distance per code.
//    A batch runs tile-major: each tile of lanes is loaded once and every
//    query re-scans it from cache.
//  * vertical — a VerticalCodeStore bit-plane copy: per-lane distance
//    counters accumulate plane-by-plane in bit-sliced form across 512
//    codes at once, and a whole block is abandoned the moment every
//    lane's running count already exceeds h. On selective (small-h)
//    queries most blocks die within the first few planes, so the scan
//    reads a fraction of the planes the horizontal kernel must touch.
//    Before that, each block's common-bit summaries rule out the 64-lane
//    groups whose shared bits already put them past h; a block with no
//    group left is skipped without a plane row read, which on a
//    prefix-ordered store is most blocks. A batch runs block-major:
//    inside each block the queries the summaries left go in groups of up
//    to four that share each plane-row load.
// kernels::CodeSet (code_set.h) owns both layouts of a stored set and
// picks between them per query with ChooseLayout.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "code/binary_code.h"
#include "kernels/code_store.h"
#include "kernels/vertical_code_store.h"

namespace hamming::kernels {

/// \brief Which kernel implementation executes the batched routines.
enum class Backend {
  kPortable,  // std::popcount blockwise
  kAvx2,      // vpshufb popcount, 4 codes / vector
  kAvx512,    // vpopcntq, 8 codes / vector
};

/// \brief True when this build has the AVX2 kernels AND the CPU has AVX2.
bool Avx2Supported();

/// \brief True when this build has the AVX-512 kernels AND the CPU has
/// AVX-512F, AVX-512BW, and AVX-512VPOPCNTDQ.
bool Avx512Supported();

/// \brief The backend the batched routines currently execute.
Backend ActiveBackend();

/// \brief Pins the backend (tests/benchmarks). Requesting a tier the
/// machine lacks silently falls back to the best supported one.
void SetBackend(Backend backend);

/// \brief Human-readable backend name ("portable", "avx2", "avx512").
const char* BackendName(Backend backend);

/// \brief Which storage layout ChooseLayout picks for a threshold scan.
enum class KernelLayout {
  kHorizontal,  // CodeStore word lanes
  kVertical,    // VerticalCodeStore bit planes
};

/// \brief Smallest store for which the vertical layout can win: below
/// ~8 blocks the per-query setup (query mask spread, counter reset per
/// block) swamps the plane pruning.
inline constexpr std::size_t kVerticalMinCodes = 4096;

/// \brief The layout heuristic: vertical iff the store is large enough
/// to amortize per-block setup AND the radius is selective enough
/// (h*8 <= bits) that plane pruning bites early.
KernelLayout ChooseLayout(std::size_t bits, std::size_t h, std::size_t n);

/// \brief Observability counters filled by one vertical scan.
/// blocks_skipped <= blocks_pruned <= blocks_scanned.
struct VerticalScanStats {
  uint64_t planes_scanned = 0;  // plane rows actually read
  uint64_t blocks_pruned = 0;   // blocks abandoned before the last plane
  uint64_t blocks_skipped = 0;  // pruned by the summaries, no row read
  uint64_t blocks_scanned = 0;  // total blocks visited
};

/// \brief out[i] = Hamming distance of `query` to store code i, for all
/// i in [0, store.size()). `out` must hold store.size() entries.
void BatchDistance(const BinaryCode& query, const CodeStore& store,
                   uint32_t* out);

/// \brief Vector-returning convenience overload of BatchDistance.
void BatchDistance(const BinaryCode& query, const CodeStore& store,
                   std::vector<uint32_t>* out);

/// \brief Appends to `out_slots` every store slot whose code is within
/// Hamming distance h of `query`, in ascending slot order.
void BatchWithinDistance(const BinaryCode& query, const CodeStore& store,
                         std::size_t h, std::vector<uint32_t>* out_slots);

/// \brief Vertical-layout threshold scan: appends matching slots in
/// ascending order, identical results to the horizontal overload above.
/// `stats`, when non-null, receives plane/block pruning counts. This is
/// the multi-query vertical scan below with a group of one.
void BatchWithinDistance(const BinaryCode& query,
                         const VerticalCodeStore& store, std::size_t h,
                         std::vector<uint32_t>* out_slots,
                         VerticalScanStats* stats = nullptr);

/// \brief One query of a multi-query vertical scan and where its answer
/// goes.
struct VerticalQuery {
  const BinaryCode* code = nullptr;
  std::size_t h = 0;
  /// Matching slots are appended here in ascending order.
  std::vector<uint32_t>* slots = nullptr;
  /// The query's plane/block counters are added here when non-null.
  VerticalScanStats* stats = nullptr;
};

/// \brief Multi-query vertical scan: every query's slots and counters
/// are exactly those of its own BatchWithinDistance call over `store`.
///
/// Each (query, block) is first checked against the block's common-bit
/// summaries: a block none of whose lane groups can hold a match is
/// pruned and skipped with no plane row read. The scan is then
/// block-major: the block loop is outside, and inside each 512-code block
/// the queries that passed its check run in groups of up to four that
/// share a counter-plane count, so a group loads each plane-row pair once
/// for all of its queries and a batch reads each block from memory once.
/// A query's planes_scanned counts only the rows read while it was alive
/// in a block, and blocks_pruned only the blocks it died in (the skipped
/// ones included). All queries must have the store's code length.
void MultiWithinDistance(const VerticalCodeStore& store,
                         const VerticalQuery* queries, std::size_t nq);

/// \brief out[i] = popcount(values[i] ^ query_word): the one-word batch
/// used for per-segment node distances (StaticHAIndex phase 1). Counts
/// fit uint16 because one word has at most 64 differing bits.
void BatchXorPopcount(uint64_t query_word, const uint64_t* values,
                      std::size_t n, uint16_t* out);

/// \brief The k store slots nearest to `query`, as (slot, distance)
/// pairs sorted ascending by (distance, slot). A bounded max-heap is fed
/// from blockwise batch distances, so memory stays O(k) regardless of
/// store size.
std::vector<std::pair<uint32_t, uint32_t>> BatchKnn(const BinaryCode& query,
                                                    const CodeStore& store,
                                                    std::size_t k);

/// \brief One (slot, exact distance) match of a multi-query scan.
struct SlotDistance {
  uint32_t slot;
  uint32_t dist;
  bool operator==(const SlotDistance& o) const {
    return slot == o.slot && dist == o.dist;
  }
};

/// \brief Multi-query threshold scan: out_hits[q] = every store slot
/// within Hamming distance radii[q] of *queries[q], as (slot, distance)
/// in ascending slot order — per query identical to BatchWithinDistance
/// plus the distances a BatchDistance pass would report.
///
/// The store is streamed ONCE per tile for all nq queries (tile loop
/// outside, query loop inside), so a coalesced batch pays the lane
/// memory traffic once instead of nq times — the amortization the
/// serving layer's batcher exists to harvest. All queries must have the
/// store's code length.
void MultiWithinDistance(const CodeStore& store,
                         const BinaryCode* const* queries,
                         const std::size_t* radii, std::size_t nq,
                         std::vector<std::vector<SlotDistance>>* out_hits);

/// \brief Multi-query exact kNN with the same tile-major traversal:
/// out[q] = BatchKnn(*queries[q], store, ks[q]), bit-identical, with one
/// bounded max-heap per query fed from shared tile distances.
void MultiKnn(const CodeStore& store, const BinaryCode* const* queries,
              const std::size_t* ks, std::size_t nq,
              std::vector<std::vector<std::pair<uint32_t, uint32_t>>>* out);

}  // namespace hamming::kernels
