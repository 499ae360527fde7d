// The block-major multi-query vertical (bit-sliced) threshold scan,
// written once over a tier's plane-row vector type.
//
// Per 512-code block, per-lane Hamming distances accumulate in P =
// CounterPlanes(h) bit-sliced counter rows: counter bit i of lane l lives
// in lane l of cnt[i]. Planes are consumed two at a time through a
// carry-save step — the two mismatch rows collapse into (sum, carry) with
// one full adder, so each pair costs one ripple through the P counter
// rows instead of two. Counters are preloaded with CounterBias(h) =
// 2^P - 1 - h, so the carry out of the top row fires on the (h+1)-th
// mismatch exactly: a lane that overflows is > h and drops out of `alive`
// for good, and a lane alive after the last plane is <= h with no
// comparison epilogue. The moment a query's `alive` empties, the rest of
// the block's planes are skipped for it — that early exit is the point of
// the layout: selective queries kill most blocks within a few planes.
//
// Before any plane is read, each block's common-bit summaries
// (vertical_code_store.h) are checked against every query: a 64-lane
// group whose uniform planes already differ from the query in more than
// h bits cannot hold a match. The check runs query-major over all blocks
// first and leaves, per (query, block), an 8-bit mask of the groups that
// pass. A block whose mask is empty is pruned for that query without a
// plane row read (blocks_skipped); otherwise the query's `alive` starts
// at the lanes of its passing groups only. On a prefix-ordered store
// neighbouring codes share their leading bits, so most groups fail the
// check on the first summary word.
//
// Many queries share one pass. The block loop is outside; inside each
// block the queries that survived its summary check run in groups of up
// to kMaxGroup that share a counter-plane count, so a group loads each
// plane-row pair once and advances its queries' counters side by side —
// independent dependency chains the core overlaps — and a batch reads
// each block's planes from memory once instead of once per query. A
// group leaves the block once all of its queries are dead. Each query
// keeps its own counters, alive mask, survivors and statistics:
// planes_scanned counts the rows read while that query was alive,
// blocks_pruned the blocks it died in (skipped ones included), exactly
// as a scan of its own would.
//
// The three backend TUs (portable / AVX2 / AVX-512) instantiate MultiScan
// with their own `Ops`: the plane-row vector type (eight 64-bit words,
// two 256-bit vectors, one 512-bit vector), its bitwise operations, the
// masked load that starts `alive`, and the summary check.
// Internal to src/kernels; not part of the public API.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "kernels/vertical_code_store.h"

namespace hamming::kernels::detail {

/// Upper bound on bit-sliced counter planes: h < bits <= 512, so counts
/// are capped at 511 and 9 planes always suffice.
inline constexpr std::size_t kMaxCounterPlanes = 9;

/// Most queries that share one plane-row load inside a block.
inline constexpr std::size_t kMaxGroup = 4;

/// One query of a multi-query scan: its inputs, where its survivors go,
/// and its plane and prune tallies.
struct PlaneQuery {
  const uint64_t* qmask = nullptr;   // qmask[p] = ~0 where query bit p is set
  const uint64_t* qwords = nullptr;  // the code's words, for the summaries
  uint64_t h = 0;                    // radius, below the width
  std::size_t counter_planes = 0;    // CounterPlanes(h)
  std::vector<uint32_t>* slots = nullptr;  // survivors, ascending
  uint64_t planes_read = 0;
  uint64_t blocks_pruned = 0;
  uint64_t blocks_skipped = 0;
};

// Internal linkage on purpose: every tier TU compiles its own copy under
// its own target flags, so the linker never hands a baseline caller a
// copy built for a wider instruction set.
namespace {

/// Counter planes needed to represent counts in [0, h] plus an overflow
/// signal: the smallest P with 2^P >= h+1 (overflow beyond 2^P-1 is
/// folded into the per-lane alive mask instead of a wider counter).
inline std::size_t CounterPlanes(std::size_t h) {
  return h == 0 ? 1 : std::bit_width(static_cast<uint64_t>(h));
}

/// Saturation bias preloaded into every lane's counter: with counters
/// starting at 2^P - 1 - h, the carry out of plane P-1 fires on the
/// (h+1)-th mismatch exactly — the overflow test IS the > h test. Lanes
/// still alive after the last plane therefore hold count <= h with no
/// comparison epilogue, and pruning triggers at the earliest plane the
/// threshold permits instead of at the next power of two.
inline uint64_t CounterBias(std::size_t h) {
  return (uint64_t{1} << CounterPlanes(h)) - 1 - h;
}

/// Appends the set lanes of `survivors` (ascending) as absolute slots.
inline void EmitSurvivors(std::size_t block_base, const uint64_t* survivors,
                          std::vector<uint32_t>* out_slots) {
  for (std::size_t g = 0; g < VerticalCodeStore::kWordsPerPlane; ++g) {
    uint64_t m = survivors[g];
    const std::size_t lane_base = block_base + g * 64;
    while (m != 0) {
      const int l = std::countr_zero(m);
      m &= m - 1;
      out_slots->push_back(
          static_cast<uint32_t>(lane_base + static_cast<std::size_t>(l)));
    }
  }
}

/// Adds `carry` into counter planes [From, NP) and clears from *alive
/// the lanes whose count overflows the top plane (count > h).
template <class Ops, std::size_t NP, std::size_t From, class V>
inline void RippleCarry(V* cnt, V carry, V* alive) {
  if constexpr (From == NP) {
    *alive = Ops::AndNot(carry, *alive);
  } else {
#pragma GCC unroll 9
    for (std::size_t i = From; i + 1 < NP; ++i) {
      const V t = Ops::And(cnt[i], carry);
      cnt[i] = Ops::Xor(cnt[i], carry);
      carry = t;
    }
    // The top plane's carry out only ever clears lanes.
    *alive = Ops::AndNotBoth(*alive, cnt[NP - 1], carry);
    cnt[NP - 1] = Ops::Xor(cnt[NP - 1], carry);
  }
}

/// One block of one group of G queries with NP counter planes each;
/// lane_groups[g] holds the 64-lane groups query g's summary check left.
template <class Ops, std::size_t G, std::size_t NP>
void ScanGroupBlock(const uint64_t* planes, std::size_t bits,
                    const uint64_t* valid, std::size_t block_base,
                    PlaneQuery* const* group, const unsigned* lane_groups) {
  using V = typename Ops::V;
  constexpr std::size_t kW = VerticalCodeStore::kWordsPerPlane;
  const uint64_t* qmask[G];
  V cnt[G][NP];
  V alive[G];
#pragma GCC unroll 4
  for (std::size_t g = 0; g < G; ++g) {
    qmask[g] = group[g]->qmask;
    alive[g] = Ops::LoadGroups(valid, lane_groups[g]);
    // Saturation bias: carry out of the top plane == count > h.
    const uint64_t bias = CounterBias(group[g]->h);
#pragma GCC unroll 9
    for (std::size_t i = 0; i < NP; ++i) {
      cnt[g][i] = Ops::Fill(((bias >> i) & 1) != 0);
    }
  }
  unsigned live = (1u << G) - 1;  // bit g: query g still has a lane alive
  std::size_t p = 0;
  for (; p + 1 < bits; p += 2) {
    const V ra = Ops::Load(planes + p * kW);
    const V rb = Ops::Load(planes + (p + 1) * kW);
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) {
      if (((live >> g) & 1) == 0) continue;
      const V xa = Ops::Xor(ra, Ops::Splat(qmask[g][p]));
      const V xb = Ops::Xor(rb, Ops::Splat(qmask[g][p + 1]));
      // Full adder over the two mismatch bits and counter plane 0; its
      // carry ripples up the remaining planes.
      V carry = Ops::Maj(xa, xb, cnt[g][0]);
      cnt[g][0] = Ops::Xor3(xa, xb, cnt[g][0]);
      RippleCarry<Ops, NP, 1>(cnt[g], carry, &alive[g]);
      if (!Ops::Any(alive[g])) {
        live &= ~(1u << g);
        group[g]->planes_read += p + 2;
        ++group[g]->blocks_pruned;
      }
    }
    if (live == 0) return;
  }
  if (p < bits) {  // odd trailing plane
    const V ra = Ops::Load(planes + p * kW);
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) {
      if (((live >> g) & 1) == 0) continue;
      RippleCarry<Ops, NP, 0>(cnt[g], Ops::Xor(ra, Ops::Splat(qmask[g][p])),
                              &alive[g]);
    }
  }
  // Bias makes `alive` the exact <= h survivor set.
  alignas(64) uint64_t survivors[kW];
#pragma GCC unroll 4
  for (std::size_t g = 0; g < G; ++g) {
    if (((live >> g) & 1) == 0) continue;
    group[g]->planes_read += bits;
    Ops::Store(survivors, alive[g]);
    EmitSurvivors(block_base, survivors, group[g]->slots);
  }
}

using GroupBlockFn = void (*)(const uint64_t*, std::size_t, const uint64_t*,
                              std::size_t, PlaneQuery* const*,
                              const unsigned*);

/// ScanGroupBlock for every (counter planes, group size): entry
/// (NP - 1) * kMaxGroup + (G - 1).
template <class Ops, std::size_t... I>
constexpr std::array<GroupBlockFn, sizeof...(I)> GroupBlockTable(
    std::index_sequence<I...>) {
  return {&ScanGroupBlock<Ops, I % kMaxGroup + 1, I / kMaxGroup + 1>...};
}

/// The scan: the summary check of every (query, block), then every block
/// with the groups its surviving queries form. Queries have radii below
/// the store's width and come ordered by counter_planes, so each block's
/// groups are runs of up to kMaxGroup survivors with one count.
template <class Ops>
void MultiScan(const VerticalCodeStore& store, PlaneQuery* queries,
               std::size_t nq) {
  static constexpr auto kKernels = GroupBlockTable<Ops>(
      std::make_index_sequence<kMaxCounterPlanes * kMaxGroup>());
  constexpr std::size_t kBlock = VerticalCodeStore::kBlockCodes;
  constexpr std::size_t kW = VerticalCodeStore::kWordsPerPlane;
  const std::size_t n = store.size();
  const std::size_t nb = store.num_blocks();
  // Lane groups of the tail block that hold codes; an empty group's
  // summary is unspecified and must not admit a query.
  const std::size_t tail_lanes = n - (nb - 1) * kBlock;
  const unsigned tail_groups = (1u << ((tail_lanes + 63) / 64)) - 1;
  // admit[q * nb + b]: the lane groups of block b query q may match in.
  // Loop-invariant reads are hoisted and the skip count kept in a local:
  // the byte stores into `admit` may alias anything.
  std::vector<uint8_t> admit(nq * nb);
  const std::size_t words = store.words();
  const uint64_t* summaries = store.BlockSummary(0);
  const std::size_t stride = store.SummaryWords();
  for (std::size_t q = 0; q < nq; ++q) {
    const uint64_t* qwords = queries[q].qwords;
    const uint64_t h = queries[q].h;
    uint8_t* admitted = admit.data() + q * nb;
    uint64_t skipped = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      const unsigned groups =
          Ops::SummaryGroups(summaries + b * stride, qwords, words, h) &
          (b + 1 == nb ? tail_groups : 0xffu);
      admitted[b] = static_cast<uint8_t>(groups);
      skipped += groups == 0 ? 1 : 0;
    }
    queries[q].blocks_pruned += skipped;
    queries[q].blocks_skipped += skipped;
  }
  PlaneQuery* group[kMaxGroup];
  unsigned lane_groups[kMaxGroup];
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t block_base = b * kBlock;
    const std::size_t lanes = std::min(kBlock, n - block_base);
    // Pad lanes (all-zero planes) must never be reported as matches.
    alignas(64) uint64_t valid[kW];
    for (std::size_t g = 0; g < kW; ++g) {
      valid[g] = VerticalCodeStore::StoredLanes(lanes, g);
    }
    const uint64_t* planes = store.BlockPlanes(b);
    std::size_t size = 0;
    auto run = [&] {
      kKernels[(group[0]->counter_planes - 1) * kMaxGroup + size - 1](
          planes, store.bits(), valid, block_base, group, lane_groups);
      size = 0;
    };
    for (std::size_t q = 0; q < nq; ++q) {
      const unsigned groups = admit[q * nb + b];
      if (groups == 0) continue;
      if (size == kMaxGroup ||
          (size > 0 &&
           queries[q].counter_planes != group[0]->counter_planes)) {
        run();
      }
      group[size] = &queries[q];
      lane_groups[size] = groups;
      ++size;
    }
    if (size > 0) run();
  }
}

}  // namespace

}  // namespace hamming::kernels::detail
