// Spectral Hashing (Weiss, Torralba, Fergus — NIPS'08), the similarity
// hash H : R^d -> {0,1}^L the paper's experiments train (Section 6: "We
// choose the state-of-the-art Spectral Hashing as the hash function").
// The pipeline (Section 1) maps each high-dimensional tuple to its binary
// code with it; all Hamming machinery then operates on the codes.
//
// Training: PCA of a sample, a uniform-distribution fit on each principal
// direction, and selection of the L analytical Laplacian eigenfunctions
// with the smallest frequencies. Hashing: project, evaluate the selected
// sinusoidal eigenfunctions, threshold at zero. Hash is the map phases'
// per-record kernel; DESIGN.md §4.17 gives the argument that its codes are
// the same bits as the textbook formula's.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "code/binary_code.h"
#include "common/result.h"
#include "dataset/matrix.h"

namespace hamming {

/// \brief Training options for Spectral Hashing.
struct SpectralHashingOptions {
  std::size_t code_bits = 32;
  /// Modes considered per principal direction during eigenfunction
  /// selection; the original code uses code_bits + 1.
  std::size_t max_modes_per_direction = 0;  // 0 = code_bits + 1
};

/// \brief A trained Spectral Hashing model.
class SpectralHashing {
 public:
  /// \brief Trains on a sample of the data distribution.
  ///
  /// Fails when the sample has fewer than two rows or when code_bits
  /// exceeds BinaryCode::kMaxBits.
  static Result<std::unique_ptr<SpectralHashing>> Train(
      const FloatMatrix& sample, const SpectralHashingOptions& opts);

  /// \brief Code length L in bits.
  std::size_t code_bits() const { return code_bits_; }
  /// \brief Input dimensionality d.
  std::size_t input_dim() const { return dim_; }

  /// \brief Hashes one feature vector into its binary code.
  BinaryCode Hash(std::span<const double> vec) const;

  /// \brief Hashes every row of a matrix.
  std::vector<BinaryCode> HashAll(const FloatMatrix& data) const;

  /// \brief Serializes the trained model (for the MapReduce distributed
  /// cache and table persistence).
  void Serialize(BufferWriter* w) const;
  /// \brief Reads a model Serialize wrote. Returns IOError for a model
  /// Hash could not run: code_bits outside [1, BinaryCode::kMaxBits], a
  /// zero dim, num_pcs != min(code_bits, dim), counts longer than the
  /// buffer, or an eigenfunction on a direction past num_pcs.
  static Result<std::unique_ptr<SpectralHashing>> Deserialize(BufferReader* r);

 private:
  SpectralHashing() = default;

  /// Writes the num_pcs_ centered projections of `vec` to out[0, num_pcs_),
  /// each summed in coordinate order.
  void Project(std::span<const double> vec, double* out) const;

  std::size_t code_bits_ = 0;
  std::size_t dim_ = 0;
  std::size_t num_pcs_ = 0;          // principal directions kept
  std::vector<double> mean_;          // centering vector, size dim_
  // dim_ x num_pcs_, row-major: coordinate k of direction j is at
  // [k * num_pcs_ + j], so one pass over a row feeds every direction. The
  // wire format keeps the num_pcs_ x dim_ order.
  std::vector<double> projections_;
  std::vector<double> mn_;            // per-direction range minimum
  std::vector<double> range_;         // per-direction range width
  // Selected eigenfunctions: bit b uses direction dir_[b], mode mode_[b].
  std::vector<uint32_t> dir_;
  std::vector<uint32_t> mode_;
};

namespace detail {
/// \brief std::sin(a) >= 0.0, decided by an exact reduction modulo pi for
/// |a| < 2^20 and by std::sin beyond that or for NaN and infinities.
/// Hash's per-bit test; declared here so tests can compare it with
/// std::sin.
bool SinNonNegative(double a);
}  // namespace detail

}  // namespace hamming
