// HmSearch (Zhang et al. — SSDBM'13), the signature-enumeration index the
// paper discusses in related work.
//
// Like HEngine it cuts codes into s = ceil((h+1)/2) segments so some
// segment of a qualifying pair differs by at most one bit — but it moves
// the variant enumeration to *index* time: every tuple's segment value and
// all of its 1-substitution variants are inserted as signatures, so a
// query probes each table with its exact segment value only. Queries are
// fast; the index "increases dramatically" in size (the paper's words),
// which Memory() makes visible.
#pragma once

#include <unordered_map>

#include "index/hamming_index.h"

namespace hamming {

/// \brief HmSearch signature index for thresholds up to h_max.
class HmSearchIndex final : public HammingIndex {
 public:
  explicit HmSearchIndex(std::size_t h_max) : h_max_(h_max) {}

  std::string name() const override { return "HmSearch"; }

  Status Build(const std::vector<BinaryCode>& codes) override;
  Status Insert(TupleId id, const BinaryCode& code) override;
  Status Delete(TupleId id, const BinaryCode& code) override;
  std::size_t size() const override { return stored_.size(); }
  MemoryBreakdown Memory() const override;

  std::size_t num_segments() const { return num_segments_; }

 protected:
  Status SearchOne(const BinaryCode& query, std::size_t h,
                   QueryResponse* resp) const override;

 private:
  std::pair<std::size_t, std::size_t> SegmentRange(std::size_t s) const;
  Status EnsureLayout(const BinaryCode& code);

  std::size_t h_max_;
  std::size_t num_segments_ = 0;
  std::size_t code_bits_ = 0;
  // Per segment: signature value -> tuple ids that generated it.
  std::vector<std::unordered_map<uint64_t, std::vector<TupleId>>> tables_;
  std::unordered_map<TupleId, BinaryCode> stored_;
};

}  // namespace hamming
