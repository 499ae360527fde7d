#include "index/hmsearch.h"

#include <algorithm>

namespace hamming {

std::pair<std::size_t, std::size_t> HmSearchIndex::SegmentRange(
    std::size_t s) const {
  std::size_t base = code_bits_ / num_segments_;
  std::size_t extra = code_bits_ % num_segments_;
  std::size_t begin = s * base + std::min(s, extra);
  std::size_t len = base + (s < extra ? 1 : 0);
  return {begin, begin + len};
}

Status HmSearchIndex::EnsureLayout(const BinaryCode& code) {
  if (tables_.empty()) {
    num_segments_ = std::max<std::size_t>(1, (h_max_ + 2) / 2);
    code_bits_ = code.size();
    if (code_bits_ < num_segments_) {
      return Status::InvalidArgument("code shorter than segment count");
    }
    if (code_bits_ > 64 * num_segments_) {
      return Status::InvalidArgument(
          "HmSearch segment keys are limited to 64 bits each");
    }
    tables_.assign(num_segments_, {});
  }
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  return Status::OK();
}

Status HmSearchIndex::Build(const std::vector<BinaryCode>& codes) {
  tables_.clear();
  stored_.clear();
  num_segments_ = 0;
  code_bits_ = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    HAMMING_RETURN_NOT_OK(Insert(static_cast<TupleId>(i), codes[i]));
  }
  return Status::OK();
}

Status HmSearchIndex::Insert(TupleId id, const BinaryCode& code) {
  HAMMING_RETURN_NOT_OK(EnsureLayout(code));
  for (std::size_t s = 0; s < num_segments_; ++s) {
    auto [b, e] = SegmentRange(s);
    std::size_t len = e - b;
    uint64_t key = code.SubstringAsUint64(b, len);
    tables_[s][key].push_back(id);
    for (std::size_t bit = 0; bit < len; ++bit) {
      tables_[s][key ^ (1ull << (len - 1 - bit))].push_back(id);
    }
  }
  stored_[id] = code;
  return Status::OK();
}

Status HmSearchIndex::Delete(TupleId id, const BinaryCode& code) {
  auto it = stored_.find(id);
  if (it == stored_.end() || it->second != code) {
    return Status::KeyError("tuple not found in HmSearch index");
  }
  auto drop = [this, id](std::size_t s, uint64_t key) {
    auto bucket_it = tables_[s].find(key);
    if (bucket_it == tables_[s].end()) return;
    auto& bucket = bucket_it->second;
    bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
    if (bucket.empty()) tables_[s].erase(bucket_it);
  };
  for (std::size_t s = 0; s < num_segments_; ++s) {
    auto [b, e] = SegmentRange(s);
    std::size_t len = e - b;
    uint64_t key = code.SubstringAsUint64(b, len);
    drop(s, key);
    for (std::size_t bit = 0; bit < len; ++bit) {
      drop(s, key ^ (1ull << (len - 1 - bit)));
    }
  }
  stored_.erase(it);
  return Status::OK();
}

Status HmSearchIndex::SearchOne(const BinaryCode& query, std::size_t h,
                                QueryResponse* resp) const {
  if (stored_.empty()) return Status::OK();
  if (query.size() != code_bits_) {
    return Status::InvalidArgument("query length mismatch");
  }
  if (h > h_max_) {
    return Status::InvalidArgument(
        "HmSearch was built for thresholds up to h_max");
  }
  std::vector<TupleId>& out = resp->ids;
  obs::QueryStats& stats = resp->stats;
  for (std::size_t s = 0; s < num_segments_; ++s) {
    ++stats.signatures_enumerated;
    auto [b, e] = SegmentRange(s);
    uint64_t key = query.SubstringAsUint64(b, e - b);
    auto bucket_it = tables_[s].find(key);
    if (bucket_it == tables_[s].end()) continue;
    stats.candidates_generated += bucket_it->second.size();
    stats.exact_distance_computations += bucket_it->second.size();
    for (TupleId id : bucket_it->second) {
      if (stored_.at(id).WithinDistance(query, h)) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  stats.results += out.size();
  return Status::OK();
}

MemoryBreakdown HmSearchIndex::Memory() const {
  MemoryBreakdown mb;
  for (const auto& table : tables_) {
    mb.internal_bytes += table.size() * (sizeof(uint64_t) + sizeof(void*));
    for (const auto& [key, bucket] : table) {
      (void)key;
      mb.internal_bytes += bucket.size() * sizeof(TupleId);
    }
  }
  for (const auto& [id, code] : stored_) {
    (void)id;
    mb.leaf_bytes += sizeof(TupleId) + code.PackedBytes();
  }
  return mb;
}

}  // namespace hamming
