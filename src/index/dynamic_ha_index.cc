#include "index/dynamic_ha_index.h"

#include <algorithm>
#include <vector>

#include "code/gray.h"
#include "kernels/hamming_kernels.h"

namespace hamming {

uint32_t DynamicHAIndex::NewNode() {
  nodes_.emplace_back();
  return static_cast<uint32_t>(nodes_.size() - 1);
}

Status DynamicHAIndex::Build(const std::vector<BinaryCode>& codes) {
  std::vector<TupleId> ids(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ids[i] = static_cast<TupleId>(i);
  }
  return BuildWithIds(ids, codes);
}

Status DynamicHAIndex::BuildWithIds(const std::vector<TupleId>& ids,
                                    const std::vector<BinaryCode>& codes) {
  if (ids.size() != codes.size()) {
    return Status::InvalidArgument("ids/codes size mismatch");
  }
  nodes_.clear();
  roots_.clear();
  num_tuples_ = 0;
  code_bits_ = codes.empty() ? 0 : codes[0].size();
  // The buffer takes the new width too: a rebuild may change it.
  buffer_ids_.clear();
  buffer_codes_.Reset(code_bits_);

  // Group duplicate codes; each distinct code becomes one leaf whose hash
  // table maps it to all tuple ids carrying it (Section 4.5).
  std::unordered_map<BinaryCode, std::vector<TupleId>, BinaryCodeHash> groups;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i].size() != code_bits_) {
      return Status::InvalidArgument("code length mismatch");
    }
    groups[codes[i]].push_back(ids[i]);
  }
  std::vector<std::pair<BinaryCode, std::vector<TupleId>>> group_vec;
  group_vec.reserve(groups.size());
  for (auto& [code, ids] : groups) {
    num_tuples_ += ids.size();
    group_vec.emplace_back(code, std::move(ids));
  }
  BuildForest(std::move(group_vec));
  return Status::OK();
}

void DynamicHAIndex::BuildForest(
    std::vector<std::pair<BinaryCode, std::vector<TupleId>>> groups) {
  if (groups.empty()) return;

  // Step 1 of Algorithm 1: sort by non-decreasing Gray order (or the
  // ablation alternatives).
  switch (opts_.sort_mode) {
    case BuildSortMode::kGray:
      std::sort(groups.begin(), groups.end(),
                [](const auto& a, const auto& b) {
                  int cmp = GrayRank(a.first).Compare(GrayRank(b.first));
                  if (cmp != 0) return cmp < 0;
                  return a.first < b.first;
                });
      break;
    case BuildSortMode::kLexicographic:
      std::sort(groups.begin(), groups.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      break;
    case BuildSortMode::kNone:
      break;
  }

  // Leaves.
  std::vector<uint32_t> current;
  current.reserve(groups.size());
  std::vector<uint32_t> new_roots;
  for (auto& [code, ids] : groups) {
    uint32_t leaf = NewNode();
    Node& n = nodes_[leaf];
    n.cumulative = MaskedCode::FromFullCode(code);
    n.is_leaf = true;
    n.frequency = static_cast<uint32_t>(ids.size());
    if (opts_.store_tuple_ids) n.tuple_ids = std::move(ids);
    current.push_back(leaf);
  }

  // Steps 2..: build levels bottom-up with the sliding window, merging
  // same-pattern parents, until one node remains or the depth cap hits.
  const std::size_t w = std::max<std::size_t>(2, opts_.window);
  std::size_t depth = 0;
  while (current.size() > 1 && depth < opts_.max_depth) {
    std::vector<uint32_t> next;
    std::unordered_map<MaskedCode, uint32_t, MaskedCodeHash> consolidate;
    for (std::size_t i = 0; i < current.size(); i += w) {
      std::size_t end = std::min(i + w, current.size());
      if (end - i == 1) {
        // A singleton window cannot share; the node rises unchanged.
        next.push_back(current[i]);
        continue;
      }
      MaskedCode agreement = nodes_[current[i]].cumulative;
      for (std::size_t j = i + 1; j < end; ++j) {
        agreement =
            MaskedCode::Agreement(agreement, nodes_[current[j]].cumulative);
      }
      if (agreement.AllWildcard()) {
        // No shared FLSSeq: link these nodes to the top level (Alg. 1,
        // line 16).
        for (std::size_t j = i; j < end; ++j) new_roots.push_back(current[j]);
        continue;
      }
      uint32_t parent;
      auto it = consolidate.find(agreement);
      if (it != consolidate.end()) {
        parent = it->second;  // same FLSSeq: update frequency, reuse node
      } else {
        parent = NewNode();
        nodes_[parent].cumulative = agreement;
        consolidate.emplace(agreement, parent);
        next.push_back(parent);
      }
      for (std::size_t j = i; j < end; ++j) {
        nodes_[current[j]].parent = static_cast<int32_t>(parent);
        nodes_[parent].children.push_back(current[j]);
        nodes_[parent].frequency += nodes_[current[j]].frequency;
      }
    }
    current = std::move(next);
    ++depth;
  }
  for (uint32_t n : current) new_roots.push_back(n);

  for (uint32_t r : new_roots) {
    ComputeResiduals(r);
    roots_.push_back(r);
  }
}

void DynamicHAIndex::ComputeResiduals(uint32_t root) {
  nodes_[root].residual = nodes_[root].cumulative;
  std::vector<uint32_t> stack{root};
  while (!stack.empty()) {
    uint32_t id = stack.back();
    stack.pop_back();
    const MaskedCode& parent_cum = nodes_[id].cumulative;
    for (uint32_t c : nodes_[id].children) {
      nodes_[c].residual = nodes_[c].cumulative.Residual(parent_cum);
      stack.push_back(c);
    }
  }
}

Status DynamicHAIndex::Insert(TupleId id, const BinaryCode& code) {
  if (code_bits_ == 0) code_bits_ = code.size();
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  // The code goes in before its id, so a refused append changes nothing.
  HAMMING_RETURN_NOT_OK(buffer_codes_.Append(code));
  buffer_ids_.push_back(id);
  ++num_tuples_;
  if (buffer_ids_.size() >= opts_.insert_flush_threshold) FlushBuffer();
  return Status::OK();
}

void DynamicHAIndex::FlushBuffer() {
  if (buffer_ids_.empty()) return;
  std::unordered_map<BinaryCode, std::vector<TupleId>, BinaryCodeHash> groups;
  for (std::size_t i = 0; i < buffer_ids_.size(); ++i) {
    groups[buffer_codes_.Get(i)].push_back(buffer_ids_[i]);
  }
  std::vector<std::pair<BinaryCode, std::vector<TupleId>>> group_vec;
  group_vec.reserve(groups.size());
  for (auto& [code, ids] : groups) group_vec.emplace_back(code, std::move(ids));
  buffer_ids_.clear();
  buffer_codes_.Reset(code_bits_);
  BuildForest(std::move(group_vec));
}

void DynamicHAIndex::DetachAndPropagate(uint32_t node, uint32_t count) {
  // Decrement frequencies up the ancestor chain; unlink nodes that reach
  // zero (Algorithm 2, lines 5-6 and 16-17).
  int32_t cur = static_cast<int32_t>(node);
  while (cur != kNoParent) {
    Node& n = nodes_[cur];
    n.frequency -= count;
    int32_t parent = n.parent;
    if (n.frequency == 0) {
      n.alive = false;
      if (parent == kNoParent) {
        roots_.erase(std::remove(roots_.begin(), roots_.end(),
                                 static_cast<uint32_t>(cur)),
                     roots_.end());
      } else {
        auto& siblings = nodes_[parent].children;
        siblings.erase(std::remove(siblings.begin(), siblings.end(),
                                   static_cast<uint32_t>(cur)),
                       siblings.end());
      }
    }
    cur = parent;
  }
}

Status DynamicHAIndex::Delete(TupleId id, const BinaryCode& code) {
  if (!opts_.store_tuple_ids) {
    return Status::NotImplemented(
        "Delete requires tuple ids; this index is leafless (Option B)");
  }
  // The insert buffer is checked first.
  for (std::size_t i = 0; i < buffer_ids_.size(); ++i) {
    if (buffer_ids_[i] == id && buffer_codes_.Matches(i, code)) {
      buffer_ids_[i] = buffer_ids_.back();
      buffer_ids_.pop_back();
      buffer_codes_.SwapRemove(i);
      --num_tuples_;
      return Status::OK();
    }
  }
  // Depth-first walk through bitmatch-ing nodes (Algorithm 2).
  std::vector<uint32_t> stack;
  for (uint32_t r : roots_) {
    if (nodes_[r].residual.Matches(code)) stack.push_back(r);
  }
  while (!stack.empty()) {
    uint32_t cur = stack.back();
    stack.pop_back();
    Node& n = nodes_[cur];
    if (n.is_leaf) {
      auto it = std::find(n.tuple_ids.begin(), n.tuple_ids.end(), id);
      if (it == n.tuple_ids.end()) continue;
      n.tuple_ids.erase(it);
      --num_tuples_;
      DetachAndPropagate(cur, 1);
      return Status::OK();
    }
    for (uint32_t c : n.children) {
      if (nodes_[c].residual.Matches(code)) stack.push_back(c);
    }
  }
  return Status::KeyError("tuple not found in DHA index");
}

Result<std::vector<TupleId>> DynamicHAIndex::Search(
    const BinaryCode& query, std::size_t h, obs::QueryStats* stats) const {
  HAMMING_ASSIGN_OR_RETURN(auto pairs, SearchWithDistances(query, h, stats));
  std::vector<TupleId> out;
  out.reserve(pairs.size());
  for (const auto& [id, dist] : pairs) out.push_back(id);
  return out;
}

Result<std::vector<std::pair<TupleId, uint32_t>>>
DynamicHAIndex::SearchWithDistances(const BinaryCode& query, std::size_t h,
                                    obs::QueryStats* stats) const {
  if (!opts_.store_tuple_ids) {
    return Status::NotImplemented(
        "Search requires tuple ids; use SearchCodes on a leafless index");
  }
  if (code_bits_ != 0 && query.size() != code_bits_) {
    return Status::InvalidArgument("query length mismatch");
  }
  std::vector<std::pair<TupleId, uint32_t>> out;
  // Algorithm 3: breadth-first expansion with accumulated distance. The
  // queue is a flat vector with a moving head (cheaper than std::deque
  // on this hot path).
  std::vector<std::pair<uint32_t, uint32_t>> queue;
  queue.reserve(64);
  for (uint32_t r : roots_) {
    if (stats != nullptr) ++stats->signatures_enumerated;
    std::size_t d = nodes_[r].residual.PartialDistance(query);
    if (d <= h) queue.emplace_back(r, static_cast<uint32_t>(d));
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    auto [cur, acc] = queue[head];
    const Node& n = nodes_[cur];
    if (n.is_leaf) {
      // Residual masks along the path partition all L bits, so acc is the
      // exact Hamming distance — qualified tuples are collected directly.
      for (TupleId id : n.tuple_ids) out.emplace_back(id, acc);
      if (stats != nullptr) {
        stats->candidates_generated += n.tuple_ids.size();
      }
      continue;
    }
    for (uint32_t c : n.children) {
      if (stats != nullptr) ++stats->signatures_enumerated;
      std::size_t d = acc + nodes_[c].residual.PartialDistance(query);
      if (d <= h) queue.emplace_back(c, static_cast<uint32_t>(d));
    }
  }
  // The insert buffer (bounded by the flush threshold) is scanned with
  // one CodeSet range call.
  std::vector<kernels::SlotDistance> hits;
  kernels::VerticalScanStats planes;
  HAMMING_RETURN_NOT_OK(buffer_codes_.WithinDistance(query, h, &hits, &planes));
  for (const auto& hit : hits) {
    out.emplace_back(buffer_ids_[hit.slot], hit.dist);
  }
  if (stats != nullptr) {
    ++stats->kernel_batch_calls;
    stats->candidates_generated += buffer_ids_.size();
    stats->exact_distance_computations += buffer_ids_.size();
    stats->results += out.size();
    stats->planes_scanned += planes.planes_scanned;
    stats->blocks_pruned += planes.blocks_pruned;
  }
  return out;
}

Status DynamicHAIndex::SearchBatch(std::span<const QueryRequest> requests,
                                   std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.Clear();
    auto got =
        SearchWithDistances(requests[i].code, requests[i].h, &resp.stats);
    if (!got.ok()) {
      resp.status = got.status();
      continue;
    }
    auto pairs = std::move(got).ValueOrDie();
    resp.ids.reserve(pairs.size());
    resp.distances.reserve(pairs.size());
    for (const auto& [id, dist] : pairs) {
      resp.ids.push_back(id);
      resp.distances.push_back(dist);
    }
    resp.has_distances = true;
  }
  return Status::OK();
}

Result<std::vector<BinaryCode>> DynamicHAIndex::SearchCodes(
    const BinaryCode& query, std::size_t h, obs::QueryStats* stats) const {
  if (code_bits_ != 0 && query.size() != code_bits_) {
    return Status::InvalidArgument("query length mismatch");
  }
  std::vector<BinaryCode> out;
  std::vector<std::pair<uint32_t, uint32_t>> queue;
  queue.reserve(64);
  for (uint32_t r : roots_) {
    if (stats != nullptr) ++stats->signatures_enumerated;
    std::size_t d = nodes_[r].residual.PartialDistance(query);
    if (d <= h) queue.emplace_back(r, static_cast<uint32_t>(d));
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    auto [cur, acc] = queue[head];
    const Node& n = nodes_[cur];
    if (n.is_leaf) {
      // A leaf's cumulative pattern is the full code.
      out.push_back(n.cumulative.value());
      if (stats != nullptr) ++stats->candidates_generated;
      continue;
    }
    for (uint32_t c : n.children) {
      if (stats != nullptr) ++stats->signatures_enumerated;
      std::size_t d = acc + nodes_[c].residual.PartialDistance(query);
      if (d <= h) queue.emplace_back(c, static_cast<uint32_t>(d));
    }
  }
  std::vector<kernels::SlotDistance> hits;
  HAMMING_RETURN_NOT_OK(buffer_codes_.WithinDistance(query, h, &hits));
  for (const auto& hit : hits) out.push_back(buffer_codes_.Get(hit.slot));
  if (stats != nullptr) {
    ++stats->kernel_batch_calls;
    stats->candidates_generated += buffer_ids_.size();
    stats->exact_distance_computations += buffer_ids_.size();
    stats->results += out.size();
  }
  return out;
}

namespace {

// Lower bound on ||r, s||_h for any r below `a` and s below `b`: differing
// bits on the positions both cumulative patterns determine. At leaf x leaf
// both masks cover all L bits, so the bound is the exact distance.
inline std::size_t PairLowerBound(const MaskedCode& a, const MaskedCode& b) {
  const auto& av = a.value().words();
  const auto& am = a.mask().words();
  const auto& bv = b.value().words();
  const auto& bm = b.mask().words();
  std::size_t c = 0;
  const std::size_t nw = a.value().SignificantWords();
  for (std::size_t i = 0; i < nw; ++i) {
    c += static_cast<std::size_t>(
        std::popcount((av[i] ^ bv[i]) & am[i] & bm[i]));
  }
  return c;
}

}  // namespace

Result<std::vector<JoinPair>> DynamicHAIndex::JoinWith(
    const DynamicHAIndex& other, std::size_t h) const {
  if (!opts_.store_tuple_ids || !other.opts_.store_tuple_ids) {
    return Status::NotImplemented("JoinWith requires tuple ids on both sides");
  }
  if (code_bits_ != 0 && other.code_bits_ != 0 &&
      code_bits_ != other.code_bits_) {
    return Status::InvalidArgument("joining indexes of different code length");
  }
  std::vector<JoinPair> out;

  // Dual traversal over subtree pairs. Expansion policy: expand the side
  // whose pattern determines fewer positions (the less constrained one);
  // a leaf is never expanded.
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  for (uint32_t ra : roots_) {
    for (uint32_t rb : other.roots_) {
      stack.emplace_back(ra, rb);
    }
  }
  while (!stack.empty()) {
    auto [na, nb] = stack.back();
    stack.pop_back();
    const Node& a = nodes_[na];
    const Node& b = other.nodes_[nb];
    if (PairLowerBound(a.cumulative, b.cumulative) > h) continue;
    if (a.is_leaf && b.is_leaf) {
      // Exact distance == the bound, already known <= h.
      for (TupleId r : a.tuple_ids) {
        for (TupleId s : b.tuple_ids) out.push_back({r, s});
      }
      continue;
    }
    bool expand_a;
    if (a.is_leaf) {
      expand_a = false;
    } else if (b.is_leaf) {
      expand_a = true;
    } else {
      expand_a =
          a.cumulative.EffectiveBits() <= b.cumulative.EffectiveBits();
    }
    if (expand_a) {
      for (uint32_t c : a.children) stack.emplace_back(c, nb);
    } else {
      for (uint32_t c : b.children) stack.emplace_back(na, c);
    }
  }

  // Buffered inserts on this side probe the other index through one
  // coalesced batch (bounded by the flush threshold).
  if (!buffer_ids_.empty()) {
    std::vector<QueryRequest> reqs;
    reqs.reserve(buffer_ids_.size());
    for (std::size_t i = 0; i < buffer_ids_.size(); ++i) {
      reqs.push_back(QueryRequest::Range(buffer_codes_.Get(i), h));
    }
    std::vector<QueryResponse> resps(reqs.size());
    HAMMING_RETURN_NOT_OK(other.SearchBatch(reqs, resps));
    for (std::size_t i = 0; i < resps.size(); ++i) {
      HAMMING_RETURN_NOT_OK(resps[i].status);
      for (TupleId s : resps[i].ids) {
        out.push_back({buffer_ids_[i], s});
      }
    }
  }
  for (std::size_t j = 0; j < other.buffer_ids_.size(); ++j) {
    const TupleId sid = other.buffer_ids_[j];
    const BinaryCode scode = other.buffer_codes_.Get(j);
    // Probe only the built part of this index (buffer x buffer pairs were
    // already covered above because other.Search scans other's buffer —
    // exclude them here by probing the forest directly).
    std::vector<std::pair<uint32_t, std::size_t>> queue;
    for (uint32_t r : roots_) {
      std::size_t d = nodes_[r].residual.PartialDistance(scode);
      if (d <= h) queue.emplace_back(r, d);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      auto [cur, acc] = queue[head];
      const Node& n = nodes_[cur];
      if (n.is_leaf) {
        for (TupleId r : n.tuple_ids) out.push_back({r, sid});
        continue;
      }
      for (uint32_t c : n.children) {
        std::size_t d = acc + nodes_[c].residual.PartialDistance(scode);
        if (d <= h) queue.emplace_back(c, d);
      }
    }
  }
  return out;
}

HAIndexStats DynamicHAIndex::Stats() const {
  HAIndexStats stats;
  // Depth = longest root-to-leaf chain over live nodes.
  std::vector<std::pair<uint32_t, std::size_t>> stack;
  for (uint32_t r : roots_) stack.emplace_back(r, 1);
  while (!stack.empty()) {
    auto [cur, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes_[cur];
    if (n.is_leaf) {
      ++stats.num_leaves;
      stats.depth = std::max(stats.depth, depth);
    } else {
      ++stats.num_internal_nodes;
      stats.num_edges += n.children.size();
      for (uint32_t c : n.children) stack.emplace_back(c, depth + 1);
    }
  }
  return stats;
}

std::vector<std::pair<TupleId, BinaryCode>> DynamicHAIndex::ExportTuples()
    const {
  std::vector<std::pair<TupleId, BinaryCode>> out;
  out.reserve(num_tuples_);
  std::vector<uint32_t> stack(roots_.begin(), roots_.end());
  while (!stack.empty()) {
    uint32_t cur = stack.back();
    stack.pop_back();
    const Node& n = nodes_[cur];
    if (n.is_leaf) {
      // A leaf's cumulative pattern is the full code.
      for (TupleId id : n.tuple_ids) {
        out.emplace_back(id, n.cumulative.value());
      }
    } else {
      for (uint32_t c : n.children) stack.push_back(c);
    }
  }
  for (std::size_t i = 0; i < buffer_ids_.size(); ++i) {
    out.emplace_back(buffer_ids_[i], buffer_codes_.Get(i));
  }
  return out;
}

Status DynamicHAIndex::CheckConsistency() const {
  // The buffer's ids and codes must agree slot for slot, at the index's
  // width, with the bit-plane copy (when present) in step.
  if (buffer_codes_.size() != buffer_ids_.size()) {
    return Status::IndexError("buffer ids/codes size mismatch");
  }
  if (!buffer_codes_.empty() && buffer_codes_.bits() != code_bits_) {
    return Status::IndexError("buffer code width != index code width");
  }
  const auto* planes = buffer_codes_.planes();
  if (planes != nullptr && !planes->IsTransposeOf(buffer_codes_.words())) {
    return Status::IndexError("buffer bit-plane copy diverged from its words");
  }
  // Forest frequencies: every live node's frequency is the number of
  // live tuples below it; leaves carry their id-table size.
  std::size_t leaf_tuples = 0;
  std::vector<uint32_t> stack(roots_.begin(), roots_.end());
  while (!stack.empty()) {
    uint32_t cur = stack.back();
    stack.pop_back();
    const Node& n = nodes_[cur];
    if (!n.alive) {
      return Status::IndexError("dead node reachable from the roots");
    }
    if (n.is_leaf) {
      if (opts_.store_tuple_ids && n.frequency != n.tuple_ids.size()) {
        return Status::IndexError("leaf frequency != tuple-id count");
      }
      leaf_tuples += n.frequency;
    } else {
      uint32_t below = 0;
      for (uint32_t c : n.children) {
        below += nodes_[c].frequency;
        stack.push_back(c);
      }
      if (n.frequency != below) {
        return Status::IndexError("internal frequency != sum of children");
      }
    }
  }
  if (leaf_tuples + buffer_ids_.size() != num_tuples_) {
    return Status::IndexError("size() != leaf tuples + buffered inserts");
  }
  return Status::OK();
}

Status DynamicHAIndex::MergeFrom(const DynamicHAIndex& other) {
  if (code_bits_ == 0) code_bits_ = other.code_bits_;
  if (other.code_bits_ != 0 && other.code_bits_ != code_bits_) {
    return Status::InvalidArgument("merging indexes of different code length");
  }
  if (opts_.store_tuple_ids != other.opts_.store_tuple_ids) {
    return Status::InvalidArgument("merging leafful and leafless indexes");
  }
  const uint32_t offset = static_cast<uint32_t>(nodes_.size());

  // Adopt the other forest's live nodes wholesale (dead nodes come along
  // but stay unreachable; Serialize compacts them away).
  nodes_.insert(nodes_.end(), other.nodes_.begin(), other.nodes_.end());
  for (std::size_t i = offset; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.parent != kNoParent) n.parent += static_cast<int32_t>(offset);
    for (uint32_t& c : n.children) c += offset;
  }

  // Root-level consolidation: a remote root with the same FLSSeq as a
  // local internal root folds into it (Section 5.2's merge of same-pattern
  // non-leaf nodes; children residuals stay valid because the shared
  // pattern — hence the covered positions — is identical).
  std::unordered_map<MaskedCode, uint32_t, MaskedCodeHash> local_roots;
  for (uint32_t r : roots_) {
    if (!nodes_[r].is_leaf) local_roots.emplace(nodes_[r].residual, r);
  }
  for (uint32_t r : other.roots_) {
    uint32_t nr = r + offset;
    Node& incoming = nodes_[nr];
    auto it = local_roots.find(incoming.residual);
    if (it != local_roots.end() && !incoming.is_leaf) {
      Node& target = nodes_[it->second];
      for (uint32_t c : incoming.children) {
        nodes_[c].parent = static_cast<int32_t>(it->second);
        target.children.push_back(c);
      }
      target.frequency += incoming.frequency;
      incoming.alive = false;
      incoming.children.clear();
    } else {
      roots_.push_back(nr);
      if (!incoming.is_leaf) local_roots.emplace(incoming.residual, nr);
    }
  }
  for (std::size_t i = 0; i < other.buffer_ids_.size(); ++i) {
    HAMMING_RETURN_NOT_OK(buffer_codes_.Append(other.buffer_codes_.Get(i)));
    buffer_ids_.push_back(other.buffer_ids_[i]);
  }
  num_tuples_ += other.num_tuples_;
  return Status::OK();
}

MemoryBreakdown DynamicHAIndex::Memory() const {
  MemoryBreakdown mb;
  std::vector<uint32_t> stack(roots_.begin(), roots_.end());
  while (!stack.empty()) {
    uint32_t cur = stack.back();
    stack.pop_back();
    const Node& n = nodes_[cur];
    if (n.is_leaf) {
      // Leaf payload: the full code plus its tuple-id hash table.
      mb.leaf_bytes += n.cumulative.value().PackedBytes() +
                       n.tuple_ids.size() * sizeof(TupleId);
    } else {
      mb.internal_bytes += n.residual.PackedBytes() + sizeof(uint32_t) +
                           n.children.size() * sizeof(uint32_t);
      for (uint32_t c : n.children) stack.push_back(c);
    }
  }
  // Leaves also hang off internal nodes; walk found them above. Buffered
  // inserts count as leaf payload.
  mb.leaf_bytes +=
      buffer_ids_.size() * (sizeof(TupleId) + (code_bits_ + 7) / 8);
  return mb;
}

void DynamicHAIndex::Serialize(BufferWriter* w) const {
  // Compact live, reachable nodes.
  std::vector<uint32_t> order;
  std::vector<int32_t> remap(nodes_.size(), -1);
  std::vector<uint32_t> stack(roots_.begin(), roots_.end());
  while (!stack.empty()) {
    uint32_t cur = stack.back();
    stack.pop_back();
    if (remap[cur] != -1) continue;
    remap[cur] = static_cast<int32_t>(order.size());
    order.push_back(cur);
    for (uint32_t c : nodes_[cur].children) stack.push_back(c);
  }

  w->PutVarint64(opts_.store_tuple_ids ? 1 : 0);
  w->PutVarint64(opts_.window);
  w->PutVarint64(opts_.max_depth);
  w->PutVarint64(code_bits_);
  w->PutVarint64(num_tuples_);
  w->PutVarint64(order.size());
  for (uint32_t old_id : order) {
    const Node& n = nodes_[old_id];
    n.residual.Serialize(w);
    n.cumulative.Serialize(w);
    w->PutVarint64Signed(n.parent == kNoParent ? -1 : remap[n.parent]);
    w->PutVarint64(n.children.size());
    for (uint32_t c : n.children) w->PutVarint64(remap[c]);
    w->PutVarint64(n.tuple_ids.size());
    for (TupleId t : n.tuple_ids) w->PutVarint64(t);
    w->PutVarint64(n.frequency);
    w->PutVarint64(n.is_leaf ? 1 : 0);
  }
  w->PutVarint64(roots_.size());
  for (uint32_t r : roots_) w->PutVarint64(remap[r]);
  w->PutVarint64(buffer_ids_.size());
  for (std::size_t i = 0; i < buffer_ids_.size(); ++i) {
    w->PutVarint64(buffer_ids_[i]);
    buffer_codes_.Get(i).Serialize(w);
  }
}

Result<DynamicHAIndex> DynamicHAIndex::Deserialize(BufferReader* r) {
  DynamicHAIndex idx;
  uint64_t store_ids, window, max_depth, code_bits, num_tuples, num_nodes;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&store_ids));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&window));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&max_depth));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&code_bits));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&num_tuples));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&num_nodes));
  idx.opts_.store_tuple_ids = store_ids != 0;
  idx.opts_.window = window;
  idx.opts_.max_depth = max_depth;
  idx.code_bits_ = code_bits;
  idx.num_tuples_ = num_tuples;
  // Sanity bound before allocating: every serialized node takes at least
  // several bytes, so a count beyond the remaining payload is corruption.
  if (code_bits > BinaryCode::kMaxBits || num_nodes > r->remaining()) {
    return Status::IOError("corrupt HA-Index payload");
  }
  idx.nodes_.resize(num_nodes);
  for (auto& n : idx.nodes_) {
    HAMMING_RETURN_NOT_OK(MaskedCode::Deserialize(r, &n.residual));
    HAMMING_RETURN_NOT_OK(MaskedCode::Deserialize(r, &n.cumulative));
    int64_t parent;
    HAMMING_RETURN_NOT_OK(r->GetVarint64Signed(&parent));
    n.parent = static_cast<int32_t>(parent);
    uint64_t nc;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&nc));
    if (nc > r->remaining()) return Status::IOError("corrupt children count");
    n.children.resize(nc);
    for (uint32_t& c : n.children) {
      uint64_t v;
      HAMMING_RETURN_NOT_OK(r->GetVarint64(&v));
      c = static_cast<uint32_t>(v);
    }
    uint64_t nt;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&nt));
    if (nt > r->remaining()) return Status::IOError("corrupt tuple count");
    n.tuple_ids.resize(nt);
    for (TupleId& t : n.tuple_ids) {
      uint64_t v;
      HAMMING_RETURN_NOT_OK(r->GetVarint64(&v));
      t = static_cast<TupleId>(v);
    }
    uint64_t freq, leaf;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&freq));
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&leaf));
    n.frequency = static_cast<uint32_t>(freq);
    n.is_leaf = leaf != 0;
  }
  uint64_t nr;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&nr));
  if (nr > r->remaining()) return Status::IOError("corrupt root count");
  idx.roots_.resize(nr);
  for (uint32_t& root : idx.roots_) {
    uint64_t v;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&v));
    root = static_cast<uint32_t>(v);
  }
  uint64_t nb;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&nb));
  if (nb > r->remaining()) return Status::IOError("corrupt buffer count");
  idx.buffer_codes_.Reset(code_bits);
  idx.buffer_ids_.reserve(nb);
  for (uint64_t i = 0; i < nb; ++i) {
    uint64_t v;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&v));
    BinaryCode code;
    HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(r, &code));
    if (!idx.buffer_codes_.Append(code).ok()) {
      return Status::IOError("corrupt buffer code length");
    }
    idx.buffer_ids_.push_back(static_cast<TupleId>(v));
  }
  // Structural validation: every reference must stay inside the node
  // array so a corrupt payload cannot crash later traversals.
  const auto n_nodes = static_cast<int64_t>(idx.nodes_.size());
  for (const auto& n : idx.nodes_) {
    if (n.parent != kNoParent &&
        (n.parent < 0 || n.parent >= n_nodes)) {
      return Status::IOError("corrupt parent reference");
    }
    for (uint32_t c : n.children) {
      if (c >= idx.nodes_.size()) {
        return Status::IOError("corrupt child reference");
      }
    }
  }
  for (uint32_t root : idx.roots_) {
    if (root >= idx.nodes_.size()) {
      return Status::IOError("corrupt root reference");
    }
  }
  return idx;
}

}  // namespace hamming
