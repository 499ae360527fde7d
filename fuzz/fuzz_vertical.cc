// Fuzz harness for the bit-plane vertical kernel path
// (kernels/vertical_code_store.h + the vertical BatchWithinDistance) and
// for kernels::CodeSet, which owns both layouts inside every index.
//
// The input chooses a code length, a threshold and a store's worth of
// codes; the harness then
//  1. transposes the store and checks the differential round trip
//     (IsTransposeOf + per-slot Get),
//  2. runs the same threshold query through the horizontal and the
//     vertical kernels and traps on any slot-set divergence or on a slot
//     count that differs from a scalar loop's,
//  3. exercises the incremental maintenance path (Append / SwapRemove)
//     and re-checks equivalence afterwards,
//  4. runs a batch of nq in [1, 9] fuzz-chosen queries and radii through
//     one block-major multi-query scan and requires every query's slots
//     and counters to equal those of its own one-query scan,
//  5. prefix-sorts the fuzz-chosen codes and repeats 1, 2 and 4 over
//     the sorted store, whose groups share leading bits so the common-bit
//     summaries skip blocks, then churns it with appends and
//     swap-removes and checks again,
//  6. runs the CodeSet upkeep the indexes run: fills a set to just
//     around the plane copy's floor, churns fuzz-chosen appends and
//     swap-removes across it, and checks the range entries against a
//     scalar loop before and after.
// After every phase the stores' common-bit summaries must hold: exact
// after a bulk transpose or appends alone, sound (every set agree bit
// true of every stored lane of its group) after swap-removes.
// Any disagreement between the layouts is a correctness bug by
// definition — the vertical scan must be byte-identical to the
// horizontal one for every (bits, h, n, tail) combination.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "code/binary_code.h"
#include "fuzz_targets.h"
#include "kernels/code_set.h"
#include "kernels/code_store.h"
#include "kernels/hamming_kernels.h"
#include "kernels/vertical_code_store.h"

namespace hamming_fuzz {
namespace {

using hamming::BinaryCode;
using hamming::kernels::BatchWithinDistance;
using hamming::kernels::CodeSet;
using hamming::kernels::CodeStore;
using hamming::kernels::SetAnswer;
using hamming::kernels::SlotDistance;
using hamming::kernels::VerticalCodeStore;
using hamming::kernels::VerticalQuery;
using hamming::kernels::VerticalScanStats;

// Deterministic bit source: the payload bytes first, then an LCG stream
// seeded from them, so short inputs still produce full-size codes.
class BitSource {
 public:
  BitSource(const uint8_t* data, std::size_t size)
      : data_(data), size_(size), state_(0x9e3779b97f4a7c15ull + size) {
    for (std::size_t i = 0; i < size; ++i) {
      state_ = state_ * 6364136223846793005ull + data[i];
    }
  }

  bool NextBit() {
    if (pos_ < size_ * 8) {
      const bool bit = (data_[pos_ / 8] >> (pos_ % 8)) & 1;
      ++pos_;
      return bit;
    }
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return (state_ >> 60) & 1;
  }

  std::size_t NextBits(std::size_t count) {
    std::size_t v = 0;
    for (std::size_t i = 0; i < count; ++i) v = (v << 1) | NextBit();
    return v;
  }

  BinaryCode NextCode(std::size_t bits) {
    BinaryCode code(bits);
    for (std::size_t p = 0; p < bits; ++p) code.SetBit(p, NextBit());
    return code;
  }

 private:
  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  uint64_t state_;
};

std::vector<uint32_t> SortedSlots(std::vector<uint32_t> slots) {
  std::sort(slots.begin(), slots.end());
  return slots;
}

// Both layouts must report the identical slot set for the same query.
void CheckEquivalence(const BinaryCode& query, const CodeStore& store,
                      const VerticalCodeStore& vstore, std::size_t h) {
  std::vector<uint32_t> horizontal;
  BatchWithinDistance(query, store, h, &horizontal);
  std::vector<uint32_t> vertical;
  VerticalScanStats stats;
  BatchWithinDistance(query, vstore, h, &vertical, &stats);
  HAMMING_FUZZ_CHECK(SortedSlots(horizontal) == SortedSlots(vertical));
  // Stats sanity: blocks_scanned counts every visited block (pruned
  // ones included), and no scan reads more planes than exist.
  HAMMING_FUZZ_CHECK(stats.blocks_scanned == vstore.num_blocks());
  HAMMING_FUZZ_CHECK(stats.blocks_pruned <= stats.blocks_scanned);
  HAMMING_FUZZ_CHECK(stats.planes_scanned <=
                     stats.blocks_scanned * vstore.bits());
  std::size_t within = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    within += store.Get(i).WithinDistance(query, h) ? 1 : 0;
  }
  HAMMING_FUZZ_CHECK(vertical.size() == within);
}

// One block-major scan of nq queries must give every query the slots and
// counters of its own one-query scan. The batch comes from the input's
// last ten bytes (the bit stream's on shorter inputs): nq = 1 + t[0] % 9;
// radius i from t[1 + i], a selective one (b % (bits / 8 + 2)) below 128
// and any up to bits + 1 ((b - 128) % (bits + 2)) from 128 on. Query 0 is
// `query`, the others stored codes with up to three fuzz-chosen flips.
void CheckMultiQuery(const uint8_t* data, std::size_t size,
                     const CodeStore& store, const VerticalCodeStore& vstore,
                     const BinaryCode& query, BitSource* source) {
  const std::size_t bits = query.size();
  auto tail = [&](std::size_t i) -> std::size_t {
    return size >= 14 ? data[size - 10 + i] : source->NextBits(8);
  };
  const std::size_t nq = 1 + tail(0) % 9;
  std::vector<BinaryCode> codes = {query};
  std::vector<std::size_t> radii;
  for (std::size_t i = 0; i < nq; ++i) {
    const std::size_t b = tail(1 + i);
    radii.push_back(b < 128 ? b % (bits / 8 + 2) : (b - 128) % (bits + 2));
    if (i == 0) continue;
    BinaryCode code = store.empty()
                          ? source->NextCode(bits)
                          : store.Get(source->NextBits(16) % store.size());
    for (std::size_t f = source->NextBits(2); f > 0; --f) {
      code.FlipBit(source->NextBits(10) % bits);
    }
    codes.push_back(code);
  }
  std::vector<std::vector<uint32_t>> slots(nq);
  std::vector<VerticalScanStats> stats(nq);
  std::vector<VerticalQuery> scans;
  for (std::size_t i = 0; i < nq; ++i) {
    scans.push_back({&codes[i], radii[i], &slots[i], &stats[i]});
  }
  hamming::kernels::MultiWithinDistance(vstore, scans.data(), nq);
  for (std::size_t i = 0; i < nq; ++i) {
    std::vector<uint32_t> alone;
    VerticalScanStats alone_stats;
    BatchWithinDistance(codes[i], vstore, radii[i], &alone, &alone_stats);
    HAMMING_FUZZ_CHECK(slots[i] == alone);
    HAMMING_FUZZ_CHECK(stats[i].planes_scanned == alone_stats.planes_scanned);
    HAMMING_FUZZ_CHECK(stats[i].blocks_pruned == alone_stats.blocks_pruned);
    HAMMING_FUZZ_CHECK(stats[i].blocks_scanned == alone_stats.blocks_scanned);
  }
}

// The set holds exactly `model`, its plane copy exists iff it reached
// the floor since its last Reset and mirrors the words, and both range
// entries agree with a scalar loop.
void CheckCodeSet(const std::vector<BinaryCode>& model, const CodeSet& set,
                  bool reached_floor, const BinaryCode& query,
                  std::size_t h) {
  HAMMING_FUZZ_CHECK(set.size() == model.size());
  const auto* planes = set.planes();
  HAMMING_FUZZ_CHECK((planes != nullptr) == reached_floor);
  HAMMING_FUZZ_CHECK(planes == nullptr || planes->IsTransposeOf(set.words()));
  HAMMING_FUZZ_CHECK(planes == nullptr || planes->SummariesHold(false));
  std::vector<SlotDistance> want;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const auto d = static_cast<uint32_t>(model[i].Distance(query));
    if (d <= h) want.push_back({static_cast<uint32_t>(i), d});
  }
  std::vector<SlotDistance> single;
  HAMMING_FUZZ_CHECK(set.WithinDistance(query, h, &single).ok());
  HAMMING_FUZZ_CHECK(single == want);
  const BinaryCode* queries[] = {&query};
  std::vector<SetAnswer> multi;
  set.MultiWithinDistance(queries, &h, 1, &multi);
  HAMMING_FUZZ_CHECK(multi.size() == 1 && multi[0].status.ok());
  HAMMING_FUZZ_CHECK(multi[0].hits == want);
}

}  // namespace

void RunVerticalFuzzInput(const uint8_t* data, std::size_t size) {
  if (size < 4) return;
  // Header: bits in [1, 512], threshold in [0, bits + 1] (one past the
  // maximum exercises the everything-matches fast path).
  const std::size_t bits =
      1 + ((static_cast<std::size_t>(data[0]) |
            (static_cast<std::size_t>(data[1]) << 8)) %
           BinaryCode::kMaxBits);
  const std::size_t h = data[2] % (bits + 2);
  // Code count spans the interesting block shapes: empty store, single
  // partial block, full block, and multi-block with a ragged tail.
  const std::size_t n =
      (static_cast<std::size_t>(data[3]) * 11 + size) % 1200;

  BitSource source(data + 4, size - 4);
  const BinaryCode query = source.NextCode(bits);

  CodeStore store;
  VerticalCodeStore incremental;
  incremental.Reset(bits);
  std::vector<BinaryCode> codes;
  for (std::size_t i = 0; i < n; ++i) {
    codes.push_back(source.NextCode(bits));
    HAMMING_FUZZ_CHECK(store.Append(codes.back()).ok());
    HAMMING_FUZZ_CHECK(incremental.Append(codes.back()).ok());
  }

  // Differential round trip: bulk transpose == incremental appends, and
  // both reproduce every lane of the horizontal store. Appends alone
  // narrow each group's summary down to exactly its uniform planes.
  VerticalCodeStore bulk;
  bulk.AssignTransposed(store);
  HAMMING_FUZZ_CHECK(bulk.IsTransposeOf(store));
  HAMMING_FUZZ_CHECK(incremental.IsTransposeOf(store));
  HAMMING_FUZZ_CHECK(bulk.SummariesHold(true));
  HAMMING_FUZZ_CHECK(incremental.SummariesHold(true));
  for (std::size_t i = 0; i < n; i += 97) {
    HAMMING_FUZZ_CHECK(bulk.Get(i) == store.Get(i));
  }

  CheckEquivalence(query, store, bulk, h);

  // Maintenance path: swap-remove a fuzz-chosen slot, append one more
  // code, and require the layouts to still agree.
  if (n > 0) {
    const std::size_t victim = (data[3] * 131 + size) % n;
    store.SwapRemove(victim);
    bulk.SwapRemove(victim);
    const BinaryCode extra = source.NextCode(bits);
    HAMMING_FUZZ_CHECK(store.Append(extra).ok());
    HAMMING_FUZZ_CHECK(bulk.Append(extra).ok());
    HAMMING_FUZZ_CHECK(bulk.IsTransposeOf(store));
    HAMMING_FUZZ_CHECK(bulk.SummariesHold(false));
    CheckEquivalence(query, store, bulk, h);
  }
  CheckMultiQuery(data, size, store, bulk, query, &source);
  if (n == 0) return;

  // Prefix order: sorted, the fuzz-chosen codes share leading bits with
  // their neighbours, so groups have uniform planes and the summary check
  // skips blocks. Then churn the sorted store and check again.
  std::sort(codes.begin(), codes.end());
  CodeStore sorted = CodeStore::FromCodes(codes).ValueOrDie();
  VerticalCodeStore vsorted;
  vsorted.AssignTransposed(sorted);
  HAMMING_FUZZ_CHECK(vsorted.IsTransposeOf(sorted));
  HAMMING_FUZZ_CHECK(vsorted.SummariesHold(true));
  CheckEquivalence(query, sorted, vsorted, h);
  CheckEquivalence(codes[n / 2], sorted, vsorted, h);
  CheckMultiQuery(data, size, sorted, vsorted, query, &source);
  for (std::size_t op = 0; op < 24; ++op) {
    if (sorted.size() > 0 && source.NextBit()) {
      const std::size_t victim = source.NextBits(16) % sorted.size();
      sorted.SwapRemove(victim);
      vsorted.SwapRemove(victim);
    } else {
      BinaryCode code = codes[source.NextBits(16) % n];
      code.FlipBit(source.NextBits(10) % bits);
      HAMMING_FUZZ_CHECK(sorted.Append(code).ok());
      HAMMING_FUZZ_CHECK(vsorted.Append(code).ok());
    }
    HAMMING_FUZZ_CHECK(vsorted.SummariesHold(false));
  }
  HAMMING_FUZZ_CHECK(vsorted.IsTransposeOf(sorted));
  CheckEquivalence(query, sorted, vsorted, h);
  CheckMultiQuery(data, size, sorted, vsorted, codes[n / 2], &source);

  // CodeSet upkeep: fill to within 8 codes of the floor, then churn 16
  // fuzz-chosen steps, which can cross it in either direction.
  constexpr std::size_t kFloor = hamming::kernels::kVerticalMinCodes;
  std::vector<BinaryCode> model;
  CodeSet set(bits);
  const std::size_t fill = kFloor - 8 + data[3] % 16;
  for (std::size_t i = 0; i < fill; ++i) {
    model.push_back(store.Get(i % store.size()));
    HAMMING_FUZZ_CHECK(set.Append(model.back()).ok());
  }
  bool reached_floor = fill >= kFloor;
  CheckCodeSet(model, set, reached_floor, query, h);
  for (std::size_t op = 0; op < 16; ++op) {
    if (source.NextBit()) {
      model.push_back(source.NextCode(bits));
      HAMMING_FUZZ_CHECK(set.Append(model.back()).ok());
    } else {
      const std::size_t victim =
          (data[3] * 131 + op * 977 + size) % model.size();
      set.SwapRemove(victim);
      model[victim] = model.back();
      model.pop_back();
    }
    reached_floor = reached_floor || model.size() >= kFloor;
  }
  CheckCodeSet(model, set, reached_floor, query, h);
}

}  // namespace hamming_fuzz

#if !defined(HAMMING_FUZZ_NO_ENTRY)
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  hamming_fuzz::RunVerticalFuzzInput(data, size);
  return 0;
}
#endif
