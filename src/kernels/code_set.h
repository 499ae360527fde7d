// The one owner of a set of equal-length codes, in both scan layouts.
//
// Every method the library compares ends in the same step: check the
// stored codes against a query with XOR+popcount. CodeSet holds those
// codes once. It always keeps the word-stride CodeStore the batched
// kernels stream; once the set first reaches kVerticalMinCodes codes it
// also keeps the bit-plane VerticalCodeStore the plane-pruning scan
// reads. Append, SwapRemove and Reset keep the two slot-aligned, and
// only Reset drops the plane copy. No const call builds or changes
// either layout, so readers can share a set without locks.
//
// The query entries are where the layout is chosen: a range query takes
// the plane scan when ChooseLayout(bits, h, n) picks the vertical layout,
// and the word lanes otherwise. A batch pays one pass per layout: its
// plane-routed queries share one block-major plane scan (each block's
// planes are read once, by groups of up to four queries, after the
// block's common-bit summaries have skipped it for every query they
// rule out), and its other queries share one tile-major pass over the
// word lanes. Every entry refuses a query whose width is not the set's.
//
// A set keeps its codes in the slots the caller gives them: FromCodes in
// input order or in a given permutation, Append at the tail, SwapRemove
// moving the last code into the hole. The plane copy's summaries only
// skip blocks when neighbouring slots share bits, which is why
// LinearScanIndex builds its set in prefix order; every other holder
// keeps insertion order, and its summaries stay sound but rarely prune.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "code/binary_code.h"
#include "common/result.h"
#include "common/status.h"
#include "kernels/code_store.h"
#include "kernels/hamming_kernels.h"
#include "kernels/vertical_code_store.h"

namespace hamming::kernels {

/// \brief One query's answer from a CodeSet multi-query entry.
struct SetAnswer {
  /// InvalidArgument when the query's width is not the set's.
  Status status = Status::OK();
  /// Range entry: every hit in ascending slot order. kNN entry: the k
  /// nearest slots in ascending (distance, slot) order.
  std::vector<SlotDistance> hits;
  /// Plane-scan counters; all zero when the word lanes answered.
  VerticalScanStats planes;
};

/// \brief Equal-length codes in word-stride form plus, from
/// kVerticalMinCodes codes on, a slot-aligned bit-plane copy.
class CodeSet {
 public:
  CodeSet() = default;
  /// Creates an empty set of `bits`-bit codes.
  explicit CodeSet(std::size_t bits) { Reset(bits); }

  /// \brief Builds a set over `codes` (all must share one length), code
  /// i in slot slots[i] when `slots` is given (CodeStore::FromCodes).
  static Result<CodeSet> FromCodes(const std::vector<BinaryCode>& codes,
                                   std::span<const uint32_t> slots = {});

  /// \brief Empties the set, drops the plane copy and fixes the width
  /// (0 = adopt the first Append's).
  void Reset(std::size_t bits);

  /// \brief Appends one code at slot size(). A code of the wrong width
  /// is refused and leaves the set unchanged.
  Status Append(const BinaryCode& code);

  /// \brief Moves the last code into slot `i` and shrinks by one.
  void SwapRemove(std::size_t i);

  BinaryCode Get(std::size_t i) const { return words_.Get(i); }
  bool Matches(std::size_t i, const BinaryCode& code) const {
    return words_.Matches(i, code);
  }
  std::size_t size() const { return words_.size(); }
  bool empty() const { return words_.empty(); }
  std::size_t bits() const { return words_.bits(); }

  /// \brief The word-stride layout (always present).
  const CodeStore& words() const { return words_; }
  /// \brief The bit-plane layout, or null while the set has not reached
  /// kVerticalMinCodes codes since its last Reset.
  const VerticalCodeStore* planes() const {
    return planes_ ? &*planes_ : nullptr;
  }

  /// \brief Range entry: *hits = every slot within Hamming distance h of
  /// `query` with its exact distance, in ascending slot order. `planes`,
  /// when non-null, accumulates the plane scan's counters.
  Status WithinDistance(const BinaryCode& query, std::size_t h,
                        std::vector<SlotDistance>* hits,
                        VerticalScanStats* planes = nullptr) const;

  /// \brief Multi-query range entry: (*out)[q] answers *queries[q] at
  /// radius radii[q], identical to WithinDistance, plane counters
  /// included. Each layout serves its share of the batch in one pass: the
  /// plane-routed queries share one block-major plane scan, and the rest
  /// share one tile-major pass over the word lanes.
  void MultiWithinDistance(const BinaryCode* const* queries,
                           const std::size_t* radii, std::size_t nq,
                           std::vector<SetAnswer>* out) const;

  /// \brief Multi-query kNN: (*out)[q].hits holds the ks[q] slots nearest
  /// to *queries[q], from one tile-major pass shared by every query.
  void MultiKnn(const BinaryCode* const* queries, const std::size_t* ks,
                std::size_t nq, std::vector<SetAnswer>* out) const;

  /// \brief Packed bytes of one copy of the codes.
  std::size_t PackedBytes() const { return words_.PackedBytes(); }
  /// \brief Buffer footprint of both layouts, padding included.
  std::size_t BufferBytes() const {
    return words_.BufferBytes() + (planes_ ? planes_->BufferBytes() : 0);
  }

 private:
  Status CheckWidth(const BinaryCode& query) const;
  /// Sets every answer's status; returns the indices of admitted queries.
  std::vector<std::size_t> Admit(const BinaryCode* const* queries,
                                 std::size_t nq,
                                 std::vector<SetAnswer>* out) const;
  /// True when ChooseLayout sends radius h to the plane copy.
  bool ScanPlanes(std::size_t h) const;
  /// Appends (slot, distance) for plane-scan survivors, recounting each
  /// distance from the word lanes.
  void AppendDistances(const BinaryCode& query,
                       const std::vector<uint32_t>& slots,
                       std::vector<SlotDistance>* hits) const;

  CodeStore words_;
  std::optional<VerticalCodeStore> planes_;
};

}  // namespace hamming::kernels
