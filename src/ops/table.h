// HammingTable: the user-facing binding of a dataset to its binary codes
// and similarity hash — what a downstream application keeps per relation
// when using hamming-db as a similarity-search engine.
#pragma once

#include <memory>

#include "code/binary_code.h"
#include "common/result.h"
#include "dataset/matrix.h"
#include "hashing/spectral_hashing.h"
#include "index/hamming_index.h"

namespace hamming {

/// \brief A relation prepared for Hamming similarity operations: feature
/// vectors, their binary codes, and the hash that maps between them.
///
/// The hash is shared (several tables joined together must be hashed by
/// the same function, Section 5.1's preprocessing trains it once).
class HammingTable {
 public:
  /// \brief Hashes every row of `data` with `hash`.
  static Result<HammingTable> FromFeatures(
      FloatMatrix data, std::shared_ptr<const SpectralHashing> hash);

  /// \brief Wraps pre-computed codes (no feature vectors available; kNN
  /// re-ranking is then unavailable).
  static Result<HammingTable> FromCodes(std::vector<BinaryCode> codes);

  /// \brief Reassembles a table from previously saved parts (storage
  /// layer); data and hash may be empty/null, codes are authoritative.
  static Result<HammingTable> FromParts(
      FloatMatrix data, std::vector<BinaryCode> codes,
      std::shared_ptr<const SpectralHashing> hash);

  std::size_t size() const { return codes_.size(); }
  std::size_t code_bits() const {
    return codes_.empty() ? 0 : codes_[0].size();
  }
  bool has_features() const { return !data_.empty(); }

  const FloatMatrix& data() const { return data_; }
  const std::vector<BinaryCode>& codes() const { return codes_; }
  const std::shared_ptr<const SpectralHashing>& hash() const { return hash_; }

  /// \brief Hashes an external query vector with this table's hash.
  Result<BinaryCode> HashQuery(std::span<const double> vec) const;

 private:
  HammingTable() = default;

  FloatMatrix data_;
  std::vector<BinaryCode> codes_;
  std::shared_ptr<const SpectralHashing> hash_;
};

}  // namespace hamming
