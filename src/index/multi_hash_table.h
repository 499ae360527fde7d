// Manku et al.'s multi-hash-table index [4] ("MH-k" in Table 4).
//
// The fingerprint is cut into b contiguous blocks. If two codes are
// within Hamming distance h, their differing bits touch at most h blocks,
// so for *some* choice of h dropped blocks the remaining k = b - h blocks
// match exactly (pigeonhole). The index therefore keeps one hash table
// per k-subset of blocks, keyed by the concatenation of those blocks,
// with the full fingerprint replicated into every table ("this algorithm
// needs to replicate the database multiple times" — Section 2). A query
// probes each table with its own key and verifies the bucket by full
// XOR+popcount.
//
// MH-4 at h = 3 uses b = 4 (C(4,3) = 4 tables, 1-block keys); MH-10 uses
// b = 5 (C(5,3) = 10 tables, 2-block keys) — more tables buy longer,
// more selective keys at the price of more replicated memory, exactly
// the trade Table 4 shows.
#pragma once

#include <unordered_map>

#include "index/hamming_index.h"
#include "kernels/code_set.h"

namespace hamming {

/// \brief Block-combination multi-table index, exact for h <= h_max.
class MultiHashTableIndex final : public HammingIndex {
 public:
  /// \param num_tables requested table budget; the largest b with
  ///   C(b, h_max) <= num_tables is chosen and all C(b, h_max) block
  ///   combinations are materialized (so the pigeonhole guarantee holds).
  /// \param h_max largest query threshold the layout stays exact for.
  explicit MultiHashTableIndex(std::size_t num_tables, std::size_t h_max = 3)
      : requested_tables_(num_tables), h_max_(h_max) {}

  std::string name() const override {
    return "MH-" + std::to_string(requested_tables_);
  }

  Status Build(const std::vector<BinaryCode>& codes) override;
  Status Insert(TupleId id, const BinaryCode& code) override;
  Status Delete(TupleId id, const BinaryCode& code) override;
  std::size_t size() const override { return stored_.size(); }
  MemoryBreakdown Memory() const override;

  /// \brief True when the pigeonhole guarantee holds for threshold h.
  bool ExactFor(std::size_t h) const { return h <= h_max_; }

  /// \brief Actual number of materialized tables (C(b, h_max)).
  std::size_t num_tables() const { return combos_.size(); }
  std::size_t num_blocks() const { return num_blocks_; }

  /// \brief Serializes the full index — every table's buckets with their
  /// replicated fingerprints. This is what the PMH MapReduce plan
  /// broadcasts, and why Manku-style duplication is expensive to ship.
  void Serialize(BufferWriter* w) const;
  static Result<MultiHashTableIndex> Deserialize(BufferReader* r);

 protected:
  Status SearchOne(const BinaryCode& query, std::size_t h,
                   QueryResponse* resp) const override;

 private:
  /// One hash bucket: slot i holds tuple ids[i] with code codes.Get(i),
  /// so bucket verification is a single CodeSet range call instead of a
  /// scalar WithinDistance per replicated fingerprint.
  struct Bucket {
    std::vector<TupleId> ids;
    kernels::CodeSet codes;
  };

  /// Lays out blocks/combinations on first use; validates key width.
  Status EnsureLayout(const BinaryCode& code);
  /// Bit range [begin, end) of block `blk`.
  std::pair<std::size_t, std::size_t> BlockRange(std::size_t blk) const;
  /// Concatenated key of the combination `combo` for `code`.
  uint64_t KeyOf(const std::vector<uint8_t>& combo,
                 const BinaryCode& code) const;

  std::size_t requested_tables_;
  std::size_t h_max_;
  std::size_t num_blocks_ = 0;
  std::size_t code_bits_ = 0;
  std::vector<std::vector<uint8_t>> combos_;  // kept blocks per table
  std::vector<std::unordered_map<uint64_t, Bucket>> tables_;
  std::unordered_map<TupleId, BinaryCode> stored_;  // Delete verification
};

}  // namespace hamming
