// Flat, word-stride (structure-of-arrays) storage for equal-length codes.
//
// BinaryCode is an array-of-structs: every code owns eight 64-bit words
// regardless of length, so scanning a million 64-bit codes touches 64 MB
// of mostly-dead cache lines and the compiler cannot vectorize across
// codes. CodeStore transposes that layout: word w of every stored code
// lives contiguously in lane w,
//
//   lane 0:  [ c0.w0 | c1.w0 | c2.w0 | ... | pad ]
//   lane 1:  [ c0.w1 | c1.w1 | c2.w1 | ... | pad ]
//   ...
//
// so the batched kernels (hamming_kernels.h) stream one query word
// against 8+ codes per inner-loop iteration with no wasted bytes. Only
// SignificantWords() lanes are kept; lanes are padded to a multiple of
// kLaneAlign zero words so SIMD paths can load full vectors past size().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "code/binary_code.h"
#include "common/status.h"

namespace hamming::kernels {

/// \brief Contiguous word-stride storage for same-length binary codes.
class CodeStore {
 public:
  /// Lane padding granularity, in 64-bit words. Eight words = one cache
  /// line = two AVX2 vectors; every lane's length is a multiple of this
  /// and the pad words are kept zero.
  static constexpr std::size_t kLaneAlign = 8;

  CodeStore() = default;
  /// Creates an empty store accepting codes of `bits` length.
  explicit CodeStore(std::size_t bits) { Reset(bits); }

  /// \brief Clears and fixes the code length (0 = adopt first Append).
  void Reset(std::size_t bits);

  /// \brief Builds a store over `codes` (all must share one length).
  /// With `slots`, code i lands in slot slots[i], which must be a
  /// permutation of [0, codes.size()); without, in slot i.
  static Result<CodeStore> FromCodes(const std::vector<BinaryCode>& codes,
                                     std::span<const uint32_t> slots = {});

  /// \brief Appends one code; adopts its length if the store is empty.
  Status Append(const BinaryCode& code);

  /// \brief Replaces slot `i` by the last code and shrinks by one (the
  /// same swap-remove every index's Delete uses).
  void SwapRemove(std::size_t i);

  /// \brief Reconstructs the code stored at slot `i`.
  BinaryCode Get(std::size_t i) const;

  /// \brief True iff slot `i` holds exactly `code` (word compare, no
  /// BinaryCode materialization).
  bool Matches(std::size_t i, const BinaryCode& code) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t bits() const { return bits_; }
  /// Number of stored word lanes (== SignificantWords of the codes).
  std::size_t words() const { return nwords_; }
  /// Slots per lane (size() rounded up to kLaneAlign); pad slots are 0.
  std::size_t stride() const { return stride_; }

  /// \brief Lane `w`: word w of codes 0..size(), then zero padding.
  const uint64_t* Lane(std::size_t w) const { return data_.data() + w * stride_; }

  /// \brief Packed-bytes accounting consistent with BinaryCode::PackedBytes.
  std::size_t PackedBytes() const { return size_ * ((bits_ + 7) / 8); }
  /// \brief Actual buffer footprint (includes padding).
  std::size_t BufferBytes() const { return data_.size() * sizeof(uint64_t); }

 private:
  void Grow(std::size_t new_stride);

  std::size_t bits_ = 0;
  std::size_t nwords_ = 0;
  std::size_t size_ = 0;
  std::size_t stride_ = 0;
  // nwords_ lanes of stride_ words each; lane w at [w*stride_, (w+1)*stride_).
  std::vector<uint64_t> data_;
};

}  // namespace hamming::kernels
