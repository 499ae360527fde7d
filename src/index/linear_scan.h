// Nested-Loops baseline (Section 3): a flat array of codes scanned with
// XOR + popcount per query. O(n) reads and O(n) distance computations per
// select; the quadratic-join strawman every other method is measured
// against. Codes live in one kernels::CodeSet, so the scan runs through
// the batched kernels instead of one BinaryCode call per code, and the
// set picks the word-stride or the bit-plane layout per query.
//
// Build lays the codes out in prefix order, a stable counting sort on
// their leading bits (ids_ carries the permutation), so the 64 codes of
// each plane-copy lane group share most of those bits and the plane
// scan's common-bit summaries skip whole blocks — the paper's HA-Index
// discards a group on its shared bits the same way (§4). Insert appends
// at the tail and Delete swap-removes, both out of order until the next
// Build. Answers list ids in slot order, which the HammingIndex contract
// leaves unspecified.
#pragma once

#include "index/hamming_index.h"
#include "kernels/code_set.h"

namespace hamming {

/// \brief The naive scan index.
class LinearScanIndex final : public HammingIndex {
 public:
  std::string name() const override { return "Nested-Loops"; }

  /// \brief Replaces the contents with `codes` (id i = codes[i]) in
  /// prefix order; deterministic for a given input.
  Status Build(const std::vector<BinaryCode>& codes) override;
  Status Insert(TupleId id, const BinaryCode& code) override;
  Status Delete(TupleId id, const BinaryCode& code) override;
  std::size_t size() const override { return ids_.size(); }
  MemoryBreakdown Memory() const override;

  /// \brief Native batch range plan: one CodeSet multi-query range call.
  /// Requests whose radius picks the bit-plane layout take the plane
  /// scan; the rest share ONE tile-major pass over the word lanes. Every
  /// response carries exact per-match distances (has_distances).
  Status SearchBatch(std::span<const QueryRequest> requests,
                     std::span<QueryResponse> responses) const override;

  /// \brief Native batch kNN: one multi-query bounded-heap scan
  /// (CodeSet::MultiKnn) instead of the base class's radius expansion.
  Status KnnBatch(std::span<const QueryRequest> requests,
                  std::span<QueryResponse> responses) const override;

 private:
  kernels::CodeSet codes_;
  std::vector<TupleId> ids_;
};

}  // namespace hamming
