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
  /// scatter and no intermediate BinaryCode materialization.
  void AssignTransposed(const CodeStore& src);

  /// \brief Differential round-trip check: true iff this store holds
  /// exactly the codes of `src` (word-exact, including zero pads).
  bool IsTransposeOf(const CodeStore& src) const;

  /// \brief Reconstructs the code stored at slot `i` (bit-gather; for
  /// tests and spot checks, not hot paths).
  BinaryCode Get(std::size_t i) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bits() const { return bits_; }
  std::size_t num_blocks() const { return blocks_; }

  /// \brief Plane rows of block `b`: bits_ consecutive rows of
  /// kWordsPerPlane words each; row p covers bit p of the block's codes
  /// (lane l of the block = word l/64, bit l%64).
  const uint64_t* BlockPlanes(std::size_t b) const {
    return data_.data() + b * bits_ * kWordsPerPlane;
  }

  /// \brief Packed-bytes accounting consistent with CodeStore.
  std::size_t PackedBytes() const { return size_ * ((bits_ + 7) / 8); }
  /// \brief Actual buffer footprint (includes tail-block padding).
  std::size_t BufferBytes() const { return data_.size() * sizeof(uint64_t); }

 private:
  void EnsureBlocks(std::size_t nblocks);
  uint64_t* MutableBlockPlanes(std::size_t b) {
    return data_.data() + b * bits_ * kWordsPerPlane;
  }
  bool GetRawBit(std::size_t slot, std::size_t plane) const;
  void SetRawBit(std::size_t slot, std::size_t plane, bool value);

  std::size_t bits_ = 0;
  std::size_t size_ = 0;
  std::size_t blocks_ = 0;
  // blocks_ blocks of bits_ plane rows of kWordsPerPlane words each.
  std::vector<uint64_t> data_;
};

}  // namespace hamming::kernels
