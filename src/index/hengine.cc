#include "index/hengine.h"

#include <algorithm>

namespace hamming {

std::pair<std::size_t, std::size_t> HEngineIndex::SegmentRange(
    std::size_t s) const {
  std::size_t base = code_bits_ / num_segments_;
  std::size_t extra = code_bits_ % num_segments_;
  std::size_t begin = s * base + std::min(s, extra);
  std::size_t len = base + (s < extra ? 1 : 0);
  return {begin, begin + len};
}

Status HEngineIndex::Build(const std::vector<BinaryCode>& codes) {
  num_segments_ = std::max<std::size_t>(1, (h_max_ + 2) / 2);  // ceil((h+1)/2)
  code_bits_ = codes.empty() ? 0 : codes[0].size();
  if (code_bits_ != 0 && code_bits_ < num_segments_) {
    return Status::InvalidArgument("code shorter than segment count");
  }
  if (code_bits_ > 64 * num_segments_) {
    return Status::InvalidArgument(
        "HEngine segment keys are limited to 64 bits each");
  }
  tables_.assign(num_segments_, {});
  code_store_.clear();
  id_to_slot_.clear();
  code_store_.reserve(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const BinaryCode& code = codes[i];
    if (code.size() != code_bits_) {
      return Status::InvalidArgument("code length mismatch");
    }
    TupleId id = static_cast<TupleId>(i);
    uint32_t slot = static_cast<uint32_t>(code_store_.size());
    code_store_.push_back(code);
    id_to_slot_[id] = slot;
    for (std::size_t s = 0; s < num_segments_; ++s) {
      auto [b, e] = SegmentRange(s);
      tables_[s].push_back({code.SubstringAsUint64(b, e - b), id, slot});
    }
  }
  for (auto& t : tables_) std::sort(t.begin(), t.end());
  return Status::OK();
}

Status HEngineIndex::Insert(TupleId id, const BinaryCode& code) {
  if (tables_.empty()) {
    // Initialize segmentation lazily from the first inserted code.
    num_segments_ = std::max<std::size_t>(1, (h_max_ + 2) / 2);
    code_bits_ = code.size();
    if (code_bits_ < num_segments_) {
      return Status::InvalidArgument("code shorter than segment count");
    }
    if (code_bits_ > 64 * num_segments_) {
      return Status::InvalidArgument(
          "HEngine segment keys are limited to 64 bits each");
    }
    tables_.assign(num_segments_, {});
  }
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  uint32_t slot = static_cast<uint32_t>(code_store_.size());
  code_store_.push_back(code);
  id_to_slot_[id] = slot;
  for (std::size_t s = 0; s < num_segments_; ++s) {
    auto [b, e] = SegmentRange(s);
    Entry entry{code.SubstringAsUint64(b, e - b), id, slot};
    auto& t = tables_[s];
    t.insert(std::lower_bound(t.begin(), t.end(), entry), entry);
  }
  return Status::OK();
}

Status HEngineIndex::Delete(TupleId id, const BinaryCode& code) {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end() || code_store_[it->second] != code) {
    return Status::KeyError("tuple not found in HEngine index");
  }
  for (std::size_t s = 0; s < num_segments_; ++s) {
    auto [b, e] = SegmentRange(s);
    Entry entry{code.SubstringAsUint64(b, e - b), id, it->second};
    auto& t = tables_[s];
    auto pos = std::lower_bound(t.begin(), t.end(), entry);
    if (pos != t.end() && pos->key == entry.key && pos->id == id) {
      t.erase(pos);
    }
  }
  // The slot stays in code_store_ (stale, unreachable); the paper's
  // HEngine likewise rebuilds rather than compacting its sorted tables.
  id_to_slot_.erase(it);
  return Status::OK();
}

Status HEngineIndex::SearchOne(const BinaryCode& query, std::size_t h,
                               QueryResponse* resp) const {
  if (id_to_slot_.empty()) return Status::OK();
  if (query.size() != code_bits_) {
    return Status::InvalidArgument("query length mismatch");
  }
  if (h > h_max_) {
    return Status::InvalidArgument(
        "HEngine was built for thresholds up to h_max");
  }
  std::vector<TupleId>& out = resp->ids;
  obs::QueryStats& stats = resp->stats;
  // Candidates hit by several probes are verified more than once and
  // deduplicated at the end — cheaper than tracking a visited set.
  auto probe = [this, &out, &query, h, &stats](std::size_t s, uint64_t key) {
    ++stats.signatures_enumerated;
    const auto& t = tables_[s];
    Entry lo{key, 0, 0};
    for (auto it = std::lower_bound(t.begin(), t.end(), lo);
         it != t.end() && it->key == key; ++it) {
      ++stats.candidates_generated;
      ++stats.exact_distance_computations;
      if (code_store_[it->slot].WithinDistance(query, h)) {
        out.push_back(it->id);
      }
    }
  };

  for (std::size_t s = 0; s < num_segments_; ++s) {
    auto [b, e] = SegmentRange(s);
    std::size_t len = e - b;
    uint64_t key = query.SubstringAsUint64(b, len);
    probe(s, key);
    // All 1-bit variants of the query segment.
    for (std::size_t bit = 0; bit < len; ++bit) {
      probe(s, key ^ (1ull << (len - 1 - bit)));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  stats.results += out.size();
  return Status::OK();
}

MemoryBreakdown HEngineIndex::Memory() const {
  MemoryBreakdown mb;
  for (const auto& t : tables_) {
    mb.internal_bytes += t.size() * sizeof(Entry);
  }
  std::size_t per_code = code_bits_ ? (code_bits_ + 7) / 8 : 0;
  mb.leaf_bytes += id_to_slot_.size() * (sizeof(TupleId) + per_code);
  return mb;
}

}  // namespace hamming
