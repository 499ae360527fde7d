#include "index/static_ha_index.h"

#include <algorithm>
#include <bit>

#include "kernels/hamming_kernels.h"

namespace hamming {

Status StaticHAIndex::EnsureLayout(const BinaryCode& code) {
  if (code_bits_ == 0) {
    if (opts_.segment_bits == 0 || opts_.segment_bits > 64) {
      return Status::InvalidArgument("segment_bits must be in [1, 64]");
    }
    if (code.size() == 0) {
      return Status::InvalidArgument("codes must have at least one bit");
    }
    code_bits_ = code.size();
    std::size_t num_levels =
        (code_bits_ + opts_.segment_bits - 1) / opts_.segment_bits;
    levels_.resize(num_levels);
    for (std::size_t j = 0; j < num_levels; ++j) {
      levels_[j].begin = j * opts_.segment_bits;
      levels_[j].len =
          std::min(opts_.segment_bits, code_bits_ - levels_[j].begin);
    }
  }
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  return Status::OK();
}

uint32_t StaticHAIndex::InternNode(Level* level, uint64_t value) {
  auto [it, inserted] = level->value_to_node.try_emplace(
      value, static_cast<uint32_t>(level->node_values.size()));
  if (inserted) {
    level->node_values.push_back(value);
    level->node_refcount.push_back(0);
  }
  ++level->node_refcount[it->second];
  return it->second;
}

Status StaticHAIndex::Build(const std::vector<BinaryCode>& codes) {
  code_bits_ = 0;
  levels_.clear();
  path_nodes_.clear();
  paths_.clear();
  id_to_row_.clear();
  groups_.clear();
  vcodes_.Reset(0);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    HAMMING_RETURN_NOT_OK(Insert(static_cast<TupleId>(i), codes[i]));
  }
  return Status::OK();
}

Status StaticHAIndex::Insert(TupleId id, const BinaryCode& code) {
  HAMMING_RETURN_NOT_OK(EnsureLayout(code));
  if (id_to_row_.count(id)) {
    return Status::InvalidArgument("duplicate tuple id");
  }
  const std::size_t row = paths_.size();
  for (auto& level : levels_) {
    uint64_t value = code.SubstringAsUint64(level.begin, level.len);
    path_nodes_.push_back(InternNode(&level, value));
  }
  HAMMING_RETURN_NOT_OK(vcodes_.Append(code));
  id_to_row_[id] = row;
  paths_.push_back(id);
  groups_.resize(levels_[0].node_values.size());
  groups_[path_nodes_[row * levels_.size()]].push_back(
      static_cast<uint32_t>(row));
  return Status::OK();
}

Status StaticHAIndex::Delete(TupleId id, const BinaryCode& code) {
  auto it = id_to_row_.find(id);
  if (it == id_to_row_.end()) {
    return Status::KeyError("tuple not found in SHA index");
  }
  const std::size_t row = it->second;
  const std::size_t nl = levels_.size();
  // Verify the stored path matches `code` (H-Delete's bitmatch step).
  for (std::size_t j = 0; j < nl; ++j) {
    uint64_t value = code.SubstringAsUint64(levels_[j].begin, levels_[j].len);
    uint32_t node = path_nodes_[row * nl + j];
    if (levels_[j].node_values[node] != value) {
      return Status::KeyError("code does not match stored tuple");
    }
  }
  // Decrement node frequencies; drop nodes reaching zero from the value
  // map (their slot stays to keep indices stable, mirroring the paper's
  // "remove node if frequency is 0").
  for (std::size_t j = 0; j < nl; ++j) {
    uint32_t node = path_nodes_[row * nl + j];
    if (--levels_[j].node_refcount[node] == 0) {
      levels_[j].value_to_node.erase(levels_[j].node_values[node]);
    }
  }
  // Swap-remove the row from its group, then the path row itself; the
  // last row moves into the hole, so its group entry is renamed too.
  const std::size_t last = paths_.size() - 1;
  auto& group = groups_[path_nodes_[row * nl]];
  *std::find(group.begin(), group.end(), static_cast<uint32_t>(row)) =
      group.back();
  group.pop_back();
  if (row != last) {
    auto& moved = groups_[path_nodes_[last * nl]];
    *std::find(moved.begin(), moved.end(), static_cast<uint32_t>(last)) =
        static_cast<uint32_t>(row);
    for (std::size_t j = 0; j < nl; ++j) {
      path_nodes_[row * nl + j] = path_nodes_[last * nl + j];
    }
    paths_[row] = paths_[last];
    id_to_row_[paths_[row]] = row;
  }
  path_nodes_.resize(last * nl);
  paths_.pop_back();
  vcodes_.SwapRemove(row);  // same swap as the path row above
  id_to_row_.erase(it);
  return Status::OK();
}

Status StaticHAIndex::SearchBatch(std::span<const QueryRequest> requests,
                                  std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
  // One scratch allocation serves the whole batch.
  SearchScratch scratch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.Clear();
    Status st = AnswerRange(requests[i].code, requests[i].h, &scratch, &resp);
    if (!st.ok()) resp.status = std::move(st);
  }
  return Status::OK();
}

Status StaticHAIndex::AnswerRange(const BinaryCode& query, std::size_t h,
                                  SearchScratch* scratch,
                                  QueryResponse* resp) const {
  if (paths_.empty()) return Status::OK();
  if (query.size() != code_bits_) {
    return Status::InvalidArgument("query length mismatch");
  }
  std::vector<TupleId>& out = resp->ids;
  obs::QueryStats& stats = resp->stats;
  const std::size_t nl = levels_.size();

  // Selective queries over large stores skip the node walk entirely and
  // scan the bit-plane sidecar: the vertical kernel's per-block pruning
  // beats memoized path sums when most blocks die within a few planes.
  if (kernels::ChooseLayout(code_bits_, h, paths_.size()) ==
          kernels::KernelLayout::kVertical &&
      vcodes_.size() == paths_.size()) {
    std::vector<uint32_t> slots;
    kernels::VerticalScanStats vstats;
    kernels::BatchWithinDistance(query, vcodes_, h, &slots, &vstats);
    out.reserve(slots.size());
    for (uint32_t slot : slots) out.push_back(paths_[slot]);
    ++stats.kernel_batch_calls;
    stats.candidates_generated += paths_.size();
    stats.exact_distance_computations += paths_.size();
    stats.results += out.size();
    stats.planes_scanned += vstats.planes_scanned;
    stats.blocks_pruned += vstats.blocks_pruned;
    stats.blocks_skipped += vstats.blocks_skipped;
    return Status::OK();
  }
  resp->has_distances = true;

  // Phase 1: one XOR+popcount per *distinct* segment node — the shared
  // computation that distinguishes the HA-Index from per-tuple scans.
  auto& node_dist = scratch->node_dist;
  node_dist.resize(nl);
  // Suffix-minimum of per-level best distances enables a tighter prune:
  // if acc + min_rest[j] > h no path can qualify through level j.
  auto& level_min = scratch->level_min;
  level_min.assign(nl, 0);
  for (std::size_t j = 0; j < nl; ++j) {
    const Level& level = levels_[j];
    uint64_t qseg = query.SubstringAsUint64(level.begin, level.len);
    auto& dist = node_dist[j];
    dist.resize(level.node_values.size());
    // Batched XOR+popcount across the level's distinct segment values
    // (node_values is a flat uint64 array — exactly one kernel lane).
    kernels::BatchXorPopcount(qseg, level.node_values.data(),
                              level.node_values.size(), dist.data());
    ++stats.kernel_batch_calls;
    // One shared distance per distinct segment node at this level.
    stats.signatures_enumerated += level.node_values.size();
    uint16_t best = 0xffff;
    for (std::size_t v = 0; v < level.node_values.size(); ++v) {
      if (level.node_refcount[v] == 0) {
        dist[v] = 0xffff;  // dead node; no live path references it
        continue;
      }
      best = std::min(best, dist[v]);
    }
    level_min[j] = best == 0xffff ? 0 : best;
  }
  auto& min_rest = scratch->min_rest;
  min_rest.assign(nl + 1, 0);
  for (std::size_t j = nl; j-- > 0;) {
    min_rest[j] = min_rest[j + 1] + level_min[j];
  }
  if (min_rest[0] > h) return Status::OK();

  // Phase 2: walk rows grouped by their shared level-0 node — one check
  // discards a whole group (the node-sharing payoff) — then sum memoized
  // distances along each surviving path with early abandonment.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].empty()) continue;
    std::size_t d0 = node_dist[0][g];
    if (d0 + min_rest[1] > h) continue;  // prunes every path through g
    stats.candidates_generated += groups_[g].size();
    for (uint32_t row : groups_[g]) {
      const uint32_t* path = path_nodes_.data() + row * nl;
      std::size_t acc = d0;
      bool ok = true;
      for (std::size_t j = 1; j < nl; ++j) {
        acc += node_dist[j][path[j]];
        if (acc + min_rest[j + 1] > h) {
          ok = false;
          break;
        }
      }
      // A row whose path walk completes has had its full distance summed
      // from memoized node distances — the exact computation for this
      // structure.
      if (!ok) continue;
      ++stats.exact_distance_computations;
      if (acc <= h) {
        out.push_back(paths_[row]);
        // The completed walk IS the exact distance — record it for free.
        resp->distances.push_back(static_cast<uint32_t>(acc));
      }
    }
  }
  stats.results += out.size();
  return Status::OK();
}

std::size_t StaticHAIndex::NodeCount() const {
  std::size_t count = 0;
  for (const auto& level : levels_) count += level.value_to_node.size();
  return count;
}

MemoryBreakdown StaticHAIndex::Memory() const {
  MemoryBreakdown mb;
  for (const auto& level : levels_) {
    // Live shared nodes: packed segment value + frequency counter.
    mb.internal_bytes +=
        level.value_to_node.size() * ((level.len + 7) / 8 + sizeof(uint32_t));
  }
  // Leaf side: per tuple, one node reference per level plus the id.
  mb.leaf_bytes += path_nodes_.size() * sizeof(uint32_t) +
                   paths_.size() * sizeof(TupleId);
  // Bit-plane sidecar for the vertical scan path, with its common-bit
  // summaries.
  mb.internal_bytes += vcodes_.PackedBytes() + vcodes_.SummaryBytes();
  return mb;
}

}  // namespace hamming
