// Approximate kNN via Hamming range search with threshold escalation
// (Section 2's description of hash-based kNN, the core use case the
// HA-Index accelerates).
//
// The query vector is hashed to its binary code; a Hamming-select with a
// small threshold h retrieves candidates; if fewer than k answers are
// found "a larger distance threshold is estimated and the near neighbor
// query is repeated" until k or more are reported. Candidates are ranked
// by true distance in feature space to produce the final k.
#pragma once

#include <memory>

#include "common/result.h"
#include "hashing/spectral_hashing.h"
#include "index/hamming_index.h"
#include "knn/exact_knn.h"

namespace hamming {

/// \brief Options for the escalating Hamming kNN search.
struct HammingKnnOptions {
  std::size_t initial_h = 2;
  std::size_t h_step = 2;  // additive escalation per retry
};

/// \brief Approximate kNN-select over a Hamming index.
///
/// Owns neither the index nor the data; both must outlive the searcher.
class HammingKnnSearcher {
 public:
  HammingKnnSearcher(const HammingIndex* index, const SpectralHashing* hash,
                     const FloatMatrix* data, HammingKnnOptions opts = {})
      : index_(index), hash_(hash), data_(data), opts_(opts) {}

  /// \brief The approximate k nearest rows to `query`, ranked by true
  /// feature-space distance among the Hamming candidates.
  Result<std::vector<Neighbor>> Search(std::span<const double> query,
                                       std::size_t k) const;

 private:
  const HammingIndex* index_;
  const SpectralHashing* hash_;
  const FloatMatrix* data_;
  HammingKnnOptions opts_;
};

}  // namespace hamming
