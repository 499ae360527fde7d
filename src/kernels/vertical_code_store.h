// Bit-plane-major ("vertical") storage for equal-length codes.
//
// CodeStore keeps word w of every code contiguous (code-major lanes);
// VerticalCodeStore transposes one level further down and keeps *bit
// plane* p of every code contiguous, grouped into blocks of kBlockCodes
// codes:
//
//   block 0, plane 0:  [ bit 0 of codes 0..511 ]   (8 × uint64)
//   block 0, plane 1:  [ bit 1 of codes 0..511 ]
//   ...
//   block 1, plane 0:  [ bit 0 of codes 512..1023 ]
//
// A plane row is 64 bytes — two AVX2 vectors or one AVX-512 vector — so
// a threshold scan streams plane rows against a broadcast query bit and
// accumulates per-lane distances in bit-sliced counters, abandoning a
// whole block as soon as every lane's running count exceeds the radius
// (hamming_kernels.h, the vertical BatchWithinDistance/MultiWithinDistance).
// Pad lanes of the tail block are kept zero, mirroring CodeStore's pad
// invariant, and are masked out of every scan by the kernels.
//
// Each block also carries a common-bit summary of its eight 64-lane
// groups. For code word w, two rows of kWordsPerPlane words follow each
// other: `agree` (word g set at bit 63-t: plane 64w+t is uniform over
// group g's stored lanes) and `value` (that plane's bit), in BinaryCode's
// word order, so popcount((query.words()[w] ^ value) & agree) summed over
// w is a lower bound on the distance from the query to every code of the
// group. When the bound exceeds h the scan drops the group before reading
// a plane row. AssignTransposed computes the summaries exactly. Append
// resets a group's summary at its first lane and narrows it after that,
// and SwapRemove narrows the summary of the group that receives the moved
// code: removals never widen one, so upkeep is conservative — every set
// agree bit holds over every stored lane of its group — until the next
// AssignTransposed. Summary words of empty groups are unspecified.
#pragma once

#include <cstdint>
#include <vector>

#include "code/binary_code.h"
#include "common/status.h"

namespace hamming::kernels {

class CodeStore;

/// \brief Plane-major (transposed) storage for same-length binary codes.
class VerticalCodeStore {
 public:
  /// Codes per block. One plane row of a block is kBlockCodes bits =
  /// kWordsPerPlane uint64 words = one 64-byte cache line.
  static constexpr std::size_t kBlockCodes = 512;
  static constexpr std::size_t kWordsPerPlane = kBlockCodes / 64;

  VerticalCodeStore() = default;
  explicit VerticalCodeStore(std::size_t bits) { Reset(bits); }

  /// \brief Clears and fixes the code length (0 = adopt first Append).
  void Reset(std::size_t bits);

  /// \brief Appends one code (bit-scatter, O(bits)); adopts its length
  /// if the store is empty. Bulk ingest should transpose an existing
  /// CodeStore via AssignTransposed instead.
  Status Append(const BinaryCode& code);

  /// \brief Replaces slot `i` by the last code and shrinks by one —
  /// the same swap-remove semantics as CodeStore::SwapRemove, so a
  /// mirrored pair of stores stays slot-aligned under deletes.
  void SwapRemove(std::size_t i);

  /// \brief Rebuilds this store as the transpose of `src` using 64×64
  /// bit-matrix transposes over the word-stride lanes — no per-bit
  /// scatter and no intermediate BinaryCode materialization — with exact
  /// common-bit summaries.
  void AssignTransposed(const CodeStore& src);

  /// \brief Differential round-trip check: true iff this store holds
  /// exactly the codes of `src` (word-exact, including zero pads).
  bool IsTransposeOf(const CodeStore& src) const;

  /// \brief Differential check of the common-bit summaries against the
  /// planes of every non-empty group: true iff every set agree bit holds
  /// over the group's stored lanes and no agree bit is set past the code
  /// width; with `exact`, also iff every uniform plane is marked.
  bool SummariesHold(bool exact) const;

  /// \brief Reconstructs the code stored at slot `i` (bit-gather; for
  /// tests and spot checks, not hot paths).
  BinaryCode Get(std::size_t i) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bits() const { return bits_; }
  /// 64-bit words per code: the summary rows per block are 2 * words().
  std::size_t words() const { return (bits_ + 63) / 64; }
  std::size_t num_blocks() const { return blocks_; }

  /// \brief Plane rows of block `b`: bits_ consecutive rows of
  /// kWordsPerPlane words each; row p covers bit p of the block's codes
  /// (lane l of the block = word l/64, bit l%64).
  const uint64_t* BlockPlanes(std::size_t b) const {
    return data_.data() + b * bits_ * kWordsPerPlane;
  }

  /// \brief The stored lanes of 64-lane group g in a block holding
  /// `lanes` codes, as a lane mask (bit l = lane 64g + l).
  static uint64_t StoredLanes(std::size_t lanes, std::size_t g) {
    const std::size_t lo = g * 64;
    if (lanes >= lo + 64) return ~0ull;
    if (lanes <= lo) return 0;
    return (1ull << (lanes - lo)) - 1;
  }

  /// \brief Common-bit summary of block `b`: for w < words(), the agree
  /// row at [2w * kWordsPerPlane] and the value row at
  /// [(2w + 1) * kWordsPerPlane], word g of each for lane group g. Block
  /// b + 1's summary follows at SummaryWords() words on.
  const uint64_t* BlockSummary(std::size_t b) const {
    return summary_.data() + b * SummaryWords();
  }
  std::size_t SummaryWords() const { return 2 * words() * kWordsPerPlane; }

  /// \brief Packed-bytes accounting consistent with CodeStore.
  std::size_t PackedBytes() const { return size_ * ((bits_ + 7) / 8); }
  /// \brief Bytes of the live blocks' common-bit summaries.
  std::size_t SummaryBytes() const {
    return blocks_ * SummaryWords() * sizeof(uint64_t);
  }
  /// \brief Actual buffer footprint (includes tail-block padding).
  std::size_t BufferBytes() const {
    return (data_.size() + summary_.size()) * sizeof(uint64_t);
  }

 private:
  void EnsureBlocks(std::size_t nblocks);
  uint64_t* MutableBlockPlanes(std::size_t b) {
    return data_.data() + b * bits_ * kWordsPerPlane;
  }
  /// Narrows the summary of `slot`'s group to also cover `code_words`;
  /// at the group's first lane, resets it to exactly that code.
  void CoverInSummary(std::size_t slot, const uint64_t* code_words,
                      bool first);
  bool GetRawBit(std::size_t slot, std::size_t plane) const;
  void SetRawBit(std::size_t slot, std::size_t plane, bool value);

  std::size_t bits_ = 0;
  std::size_t size_ = 0;
  std::size_t blocks_ = 0;
  // blocks_ blocks of bits_ plane rows of kWordsPerPlane words each.
  std::vector<uint64_t> data_;
  // One SummaryWords() run per allocated block (see BlockSummary).
  std::vector<uint64_t> summary_;
};

}  // namespace hamming::kernels
