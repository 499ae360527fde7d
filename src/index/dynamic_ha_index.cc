#include "index/dynamic_ha_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "code/gray.h"
#include "kernels/hamming_kernels.h"

namespace hamming {

namespace {

constexpr std::size_t kMaxLaneWords = 2 * BinaryCode::kWords;
using Lanes = std::array<uint64_t, kMaxLaneWords>;

// Valid positions of word w of an nbits code: bit i sits at 63 - i % 64
// of word i / 64, so a partial last word fills from the top.
uint64_t FullWord(std::size_t bits, std::size_t w) {
  const std::size_t rest = bits - 64 * w;
  return rest >= 64 ? ~uint64_t{0} : ~uint64_t{0} << (64 - rest);
}

std::size_t MaskBits(const uint64_t* lanes, std::size_t nw) {
  std::size_t c = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    c += static_cast<std::size_t>(std::popcount(lanes[2 * w + 1]));
  }
  return c;
}

// One half of a lane pattern (0 = value, 1 = mask) as a code.
BinaryCode LaneCode(const uint64_t* lanes, std::size_t nw, std::size_t bits,
                    std::size_t half) {
  BinaryCode code(bits);
  for (std::size_t w = 0; w < nw; ++w) {
    code.mutable_words()[w] = lanes[2 * w + half];
  }
  return code;
}

struct Frontier {
  uint32_t node;
  uint32_t dist;
};

// Writes to `out` every node c of [begin, end) whose accumulated distance
// acc + |(q ^ value_c) & mask_c| stays within h, and returns how many.
// Every node is written and the cursor advances by the comparison, so the
// loop has no data-dependent branch; `out` has room for end - begin.
template <std::size_t kWords>
std::size_t Expand(const uint64_t* lanes, std::size_t nw, const uint64_t* q,
                   uint32_t begin, uint32_t end, uint32_t acc, uint32_t h,
                   Frontier* out) {
  const std::size_t words = kWords != 0 ? kWords : nw;
  std::size_t n = 0;
  for (uint32_t c = begin; c < end; ++c) {
    const uint64_t* l = lanes + 2 * words * c;
    uint32_t d = acc;
    for (std::size_t w = 0; w < words; ++w) {
      d += static_cast<uint32_t>(
          std::popcount((q[w] ^ l[2 * w]) & l[2 * w + 1]));
    }
    out[n] = {c, d};
    n += d <= h ? 1 : 0;
  }
  return n;
}

using ExpandFn = std::size_t (*)(const uint64_t*, std::size_t,
                                 const uint64_t*, uint32_t, uint32_t,
                                 uint32_t, uint32_t, Frontier*);

// Specialised for 1- and 2-word lanes, generic above that.
ExpandFn PickExpand(std::size_t nw) {
  if (nw == 1) return &Expand<1>;
  if (nw == 2) return &Expand<2>;
  return &Expand<0>;
}

}  // namespace

// ---------------------------------------------------------------------------
// Draft forests and the layout pass
// ---------------------------------------------------------------------------

struct DynamicHAIndex::Draft {
  explicit Draft(std::size_t nw) : words(nw) {}

  std::size_t size() const { return is_leaf.size(); }
  const uint64_t* lanes(uint32_t node) const {
    return cumulative.data() + 2 * words * node;
  }

  uint32_t AddNode(const uint64_t* pattern, bool leaf, uint32_t freq,
                   Range id_range) {
    cumulative.insert(cumulative.end(), pattern, pattern + 2 * words);
    is_leaf.push_back(leaf ? 1 : 0);
    frequency.push_back(freq);
    ids.push_back(id_range);
    return static_cast<uint32_t>(size() - 1);
  }
  void PopNode() {
    cumulative.resize(cumulative.size() - 2 * words);
    is_leaf.pop_back();
    frequency.pop_back();
    ids.pop_back();
  }

  // Node ids keyed by their pattern, for the FLSSeq consolidation of
  // H-Build and of MergeFrom's roots.
  struct PatternHash {
    const Draft* draft;
    std::size_t operator()(uint32_t node) const {
      const uint64_t* l = draft->lanes(node);
      uint64_t h = 0;
      for (std::size_t i = 0; i < 2 * draft->words; ++i) {
        h = (h ^ l[i]) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 29;
      }
      return static_cast<std::size_t>(h);
    }
  };
  struct PatternEq {
    const Draft* draft;
    bool operator()(uint32_t a, uint32_t b) const {
      return std::equal(draft->lanes(a), draft->lanes(a) + 2 * draft->words,
                        draft->lanes(b));
    }
  };
  using PatternSet = std::unordered_set<uint32_t, PatternHash, PatternEq>;
  PatternSet NewPatternSet() const {
    return PatternSet(0, PatternHash{this}, PatternEq{this});
  }

  std::size_t words;                 // lane words per pattern
  std::vector<uint64_t> cumulative;  // 2 * words per node
  std::vector<uint8_t> is_leaf;
  std::vector<uint32_t> frequency;   // leaves; Layout sums internal nodes
  std::vector<Range> ids;            // a leaf's slice of tuple_ids
  std::vector<TupleId> tuple_ids;
  // (parent, child) in child-list order; Layout groups them by parent.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::vector<uint32_t> roots;
};

Status DynamicHAIndex::Layout(Draft d) {
  const std::size_t n = d.size();
  const std::size_t stride = 2 * d.words;
  // Child lists as CSR: the edges grouped by parent, stable, so each list
  // keeps its order.
  std::vector<uint32_t> first(n + 1, 0);
  for (const auto& [p, c] : d.edges) {
    if (p >= n || c >= n) return Status::IOError("corrupt child reference");
    ++first[p + 1];
  }
  for (std::size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<uint32_t> child(d.edges.size());
  {
    std::vector<uint32_t> fill(first.begin(), first.end() - 1);
    for (const auto& [p, c] : d.edges) child[fill[p]++] = c;
  }

  // Breadth-first order of the reachable nodes. Leaves are not expanded;
  // reaching a node twice means the draft is not a forest.
  std::vector<uint32_t> order;
  order.reserve(n);
  std::vector<uint32_t> parent(n, kNoNode);
  std::vector<uint8_t> seen(n, 0);
  auto reach = [&](uint32_t node, uint32_t from) {
    if (seen[node] != 0) return false;
    seen[node] = 1;
    parent[node] = from;
    order.push_back(node);
    return true;
  };
  for (uint32_t r : d.roots) {
    if (r >= n) return Status::IOError("corrupt root reference");
    if (!reach(r, kNoNode)) {
      return Status::IOError("corrupt HA-Index forest: node reached twice");
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const uint32_t x = order[head];
    if (d.is_leaf[x] != 0) continue;
    for (uint32_t k = first[x]; k < first[x + 1]; ++k) {
      if (!reach(child[k], x)) {
        return Status::IOError("corrupt HA-Index forest: node reached twice");
      }
    }
  }

  // An internal node's frequency is the live tuples below it, summed
  // bottom-up (children follow their parent in BFS order).
  std::vector<uint64_t> freq(n, 0);
  for (std::size_t k = order.size(); k-- > 0;) {
    const uint32_t x = order[k];
    if (d.is_leaf[x] != 0) {
      freq[x] = d.frequency[x];
    } else {
      for (uint32_t j = first[x]; j < first[x + 1]; ++j) {
        freq[x] += freq[child[j]];
      }
    }
    if (freq[x] > UINT32_MAX) return Status::IOError("corrupt frequency");
  }

  // Live nodes (frequency > 0) get consecutive ids in BFS order, so each
  // node's live children stay one contiguous range; dead ones drop out.
  std::vector<uint32_t> id(n, kNoNode);
  uint32_t live = 0;
  uint32_t roots = 0;
  for (uint32_t x : order) {
    if (freq[x] == 0) continue;
    if (parent[x] == kNoNode) ++roots;
    id[x] = live++;
  }
  residual_.assign(stride * live, 0);
  cumulative_.assign(stride * live, 0);
  range_.assign(live, Range{});
  parent_.assign(live, kNoNode);
  frequency_.assign(live, 0);
  is_leaf_.assign(live, 0);
  tuple_ids_.clear();
  num_roots_ = roots;
  for (uint32_t x : order) {
    const uint32_t i = id[x];
    if (i == kNoNode) continue;
    const uint64_t* cum = d.lanes(x);
    const uint64_t* up = parent[x] == kNoNode ? nullptr : d.lanes(parent[x]);
    uint64_t* res = residual_.data() + stride * i;
    std::copy(cum, cum + stride, cumulative_.data() + stride * i);
    // The residual keeps only positions no ancestor determines.
    for (std::size_t w = 0; w < d.words; ++w) {
      const uint64_t mask =
          up == nullptr ? cum[2 * w + 1] : cum[2 * w + 1] & ~up[2 * w + 1];
      res[2 * w] = cum[2 * w] & mask;
      res[2 * w + 1] = mask;
    }
    parent_[i] = parent[x] == kNoNode ? kNoNode : id[parent[x]];
    frequency_[i] = static_cast<uint32_t>(freq[x]);
    is_leaf_[i] = d.is_leaf[x];
    Range& r = range_[i];
    if (d.is_leaf[x] != 0) {
      const Range src = d.ids[x];
      r.begin = static_cast<uint32_t>(tuple_ids_.size());
      tuple_ids_.insert(tuple_ids_.end(), d.tuple_ids.begin() + src.begin,
                        d.tuple_ids.begin() + src.end);
      r.end = static_cast<uint32_t>(tuple_ids_.size());
    } else {
      r.begin = kNoNode;
      for (uint32_t j = first[x]; j < first[x + 1]; ++j) {
        const uint32_t c = id[child[j]];
        if (c == kNoNode) continue;
        if (r.begin == kNoNode) r.begin = c;
        r.end = c + 1;
      }
    }
  }
  return Status::OK();
}

DynamicHAIndex::Draft DynamicHAIndex::ToDraft() const {
  Draft d(LaneWords());
  d.cumulative = cumulative_;
  d.is_leaf = is_leaf_;
  d.frequency = frequency_;
  d.ids = range_;  // read for leaves only
  d.tuple_ids = tuple_ids_;
  for (uint32_t i = 0; i < is_leaf_.size(); ++i) {
    if (is_leaf_[i] != 0) continue;
    for (uint32_t c = range_[i].begin; c < range_[i].end; ++c) {
      d.edges.emplace_back(i, c);
    }
  }
  for (uint32_t r = 0; r < num_roots_; ++r) d.roots.push_back(r);
  return d;
}

// ---------------------------------------------------------------------------
// H-Search (Algorithm 3): the one walk over the arena
// ---------------------------------------------------------------------------

template <typename Visit>
void DynamicHAIndex::Walk(const BinaryCode& query, std::size_t h,
                          obs::QueryStats* stats, Visit&& visit) const {
  if (num_roots_ == 0) return;
  const std::size_t nw = LaneWords();
  const ExpandFn expand = PickExpand(nw);
  // Path distances never exceed the code length, so clamping keeps them
  // comparable in 32 bits.
  const auto radius = static_cast<uint32_t>(std::min(h, code_bits_));
  const uint64_t* q = query.words().data();
  std::vector<Frontier> frontier(std::max<std::size_t>(64, num_roots_));
  std::size_t tail = 0;
  uint64_t tested = 0;
  auto push_children = [&](Range r, uint32_t acc) {
    const std::size_t k = r.end - r.begin;
    if (tail + k > frontier.size()) {
      frontier.resize(std::max(tail + k, 2 * frontier.size()));
    }
    tail += expand(residual_.data(), nw, q, r.begin, r.end, acc, radius,
                   frontier.data() + tail);
    tested += k;
  };
  push_children(Range{0, num_roots_}, 0);
  for (std::size_t head = 0; head < tail; ++head) {
    const Frontier f = frontier[head];
    if (is_leaf_[f.node] != 0) {
      // Residual masks along the path partition all L bits, so the
      // accumulated distance is the exact Hamming distance.
      visit(f.node, f.dist);
    } else {
      push_children(range_[f.node], f.dist);
    }
  }
  if (stats != nullptr) stats->signatures_enumerated += tested;
}

// ---------------------------------------------------------------------------
// H-Build (Algorithm 1)
// ---------------------------------------------------------------------------

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
  const std::size_t bits = codes.empty() ? 0 : codes[0].size();
  for (const auto& code : codes) {
    if (code.size() != bits) {
      return Status::InvalidArgument("code length mismatch");
    }
  }
  code_bits_ = bits;
  num_tuples_ = codes.size();
  // The buffer takes the new width too: a rebuild may change it.
  buffer_ids_.clear();
  buffer_codes_.Reset(code_bits_);
  Draft d(LaneWords());
  BuildInto(ids, codes, &d);
  return Layout(std::move(d));
}

void DynamicHAIndex::BuildInto(const std::vector<TupleId>& ids,
                               const std::vector<BinaryCode>& codes,
                               Draft* d) const {
  if (codes.empty()) return;
  const std::size_t nw = LaneWords();

  // Step 1 of Algorithm 1: order the tuples so equal codes are adjacent
  // and distinct codes follow the sort mode — non-decreasing Gray order
  // (or the ablation alternatives). Ties keep input order.
  std::vector<uint32_t> order(codes.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  switch (opts_.sort_mode) {
    case BuildSortMode::kGray: {
      std::vector<BinaryCode> ranks;
      ranks.reserve(codes.size());
      for (const auto& code : codes) ranks.push_back(GrayRank(code));
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        const int cmp = ranks[a].Compare(ranks[b]);
        return cmp != 0 ? cmp < 0 : a < b;
      });
      break;
    }
    case BuildSortMode::kLexicographic:
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        const int cmp = codes[a].Compare(codes[b]);
        return cmp != 0 ? cmp < 0 : a < b;
      });
      break;
    case BuildSortMode::kNone: {
      // Input order of each code's first occurrence.
      std::unordered_map<BinaryCode, uint32_t, BinaryCodeHash> first_seen;
      std::vector<uint32_t> key(codes.size());
      for (uint32_t i = 0; i < codes.size(); ++i) {
        key[i] = first_seen.emplace(codes[i], i).first->second;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) { return key[a] < key[b]; });
      break;
    }
  }

  // Leaves: one per distinct code, holding every tuple id that carries it
  // (Section 4.5).
  std::vector<uint32_t> current;
  Lanes pattern{};
  for (std::size_t i = 0; i < order.size();) {
    const BinaryCode& code = codes[order[i]];
    std::size_t j = i + 1;
    while (j < order.size() && codes[order[j]] == code) ++j;
    Range slice;
    if (opts_.store_tuple_ids) {
      slice.begin = static_cast<uint32_t>(d->tuple_ids.size());
      for (std::size_t k = i; k < j; ++k) d->tuple_ids.push_back(ids[order[k]]);
      slice.end = static_cast<uint32_t>(d->tuple_ids.size());
    }
    for (std::size_t w = 0; w < nw; ++w) {
      pattern[2 * w] = code.words()[w];
      pattern[2 * w + 1] = FullWord(code_bits_, w);
    }
    current.push_back(
        d->AddNode(pattern.data(), true, static_cast<uint32_t>(j - i), slice));
    i = j;
  }

  // Steps 2..: build levels bottom-up with the sliding window, merging
  // same-pattern parents, until one node remains or the depth cap hits.
  const std::size_t window = std::max<std::size_t>(2, opts_.window);
  std::vector<uint32_t> tops;
  std::size_t depth = 0;
  while (current.size() > 1 && depth < opts_.max_depth) {
    std::vector<uint32_t> next;
    Draft::PatternSet consolidate = d->NewPatternSet();
    for (std::size_t i = 0; i < current.size(); i += window) {
      const std::size_t end = std::min(i + window, current.size());
      if (end - i == 1) {
        // A singleton window cannot share; the node rises unchanged.
        next.push_back(current[i]);
        continue;
      }
      // The window's maximal common FLSSeq: effective where every member
      // is effective and all values agree.
      std::copy(d->lanes(current[i]), d->lanes(current[i]) + 2 * nw,
                pattern.begin());
      for (std::size_t j = i + 1; j < end; ++j) {
        const uint64_t* other = d->lanes(current[j]);
        for (std::size_t w = 0; w < nw; ++w) {
          const uint64_t mask = pattern[2 * w + 1] & other[2 * w + 1] &
                                ~(pattern[2 * w] ^ other[2 * w]);
          pattern[2 * w] &= mask;
          pattern[2 * w + 1] = mask;
        }
      }
      if (MaskBits(pattern.data(), nw) == 0) {
        // No shared FLSSeq: link these nodes to the top level (Alg. 1,
        // line 16).
        tops.insert(tops.end(), current.begin() + i, current.begin() + end);
        continue;
      }
      // Same FLSSeq as an earlier window of this level: reuse its node.
      const uint32_t fresh = d->AddNode(pattern.data(), false, 0, Range{});
      const auto [it, added] = consolidate.insert(fresh);
      if (added) {
        next.push_back(fresh);
      } else {
        d->PopNode();
      }
      for (std::size_t j = i; j < end; ++j) {
        d->edges.emplace_back(*it, current[j]);
      }
    }
    current = std::move(next);
    ++depth;
  }
  tops.insert(tops.end(), current.begin(), current.end());
  d->roots.insert(d->roots.end(), tops.begin(), tops.end());
}

// ---------------------------------------------------------------------------
// Updates (Section 4.5, Algorithm 2)
// ---------------------------------------------------------------------------

Status DynamicHAIndex::Insert(TupleId id, const BinaryCode& code) {
  if (code_bits_ == 0) code_bits_ = code.size();
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  // The code goes in before its id, so a refused append changes nothing.
  HAMMING_RETURN_NOT_OK(buffer_codes_.Append(code));
  buffer_ids_.push_back(id);
  ++num_tuples_;
  if (buffer_ids_.size() >= opts_.insert_flush_threshold) return FlushBuffer();
  return Status::OK();
}

Status DynamicHAIndex::FlushBuffer() {
  if (buffer_ids_.empty()) return Status::OK();
  std::vector<BinaryCode> codes;
  codes.reserve(buffer_ids_.size());
  for (std::size_t i = 0; i < buffer_ids_.size(); ++i) {
    codes.push_back(buffer_codes_.Get(i));
  }
  Draft d = ToDraft();
  BuildInto(buffer_ids_, codes, &d);
  buffer_ids_.clear();
  buffer_codes_.Reset(code_bits_);
  return Layout(std::move(d));
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
  // The leaves that bitmatch `code` (Algorithm 2's descent) are exactly
  // the walk's hits at radius 0.
  uint32_t leaf = kNoNode;
  uint32_t slot = 0;
  if (code.size() == code_bits_) {
    Walk(code, 0, nullptr, [&](uint32_t node, uint32_t) {
      for (uint32_t i = range_[node].begin;
           leaf == kNoNode && i < range_[node].end; ++i) {
        if (tuple_ids_[i] == id) {
          leaf = node;
          slot = i;
        }
      }
    });
  }
  if (leaf == kNoNode) {
    return Status::KeyError("tuple not found in DHA index");
  }
  Range& ids = range_[leaf];
  tuple_ids_[slot] = tuple_ids_[ids.end - 1];
  --ids.end;
  --num_tuples_;
  // Frequencies fall up the parent chain (Algorithm 2, lines 5-6 and
  // 16-17); a node left with none keeps its slot but an empty range.
  for (uint32_t cur = leaf; cur != kNoNode; cur = parent_[cur]) {
    if (--frequency_[cur] == 0) range_[cur].end = range_[cur].begin;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Status DynamicHAIndex::SearchOne(const BinaryCode& query, std::size_t h,
                                 QueryResponse* out) const {
  if (!opts_.store_tuple_ids) {
    return Status::NotImplemented(
        "SearchBatch requires tuple ids; use SearchCodes on a leafless index");
  }
  if (code_bits_ != 0 && query.size() != code_bits_) {
    return Status::InvalidArgument("query length mismatch");
  }
  obs::QueryStats& stats = out->stats;
  std::size_t candidates = 0;
  Walk(query, h, &stats, [&](uint32_t leaf, uint32_t dist) {
    const Range r = range_[leaf];
    for (uint32_t i = r.begin; i < r.end; ++i) {
      out->ids.push_back(tuple_ids_[i]);
      out->distances.push_back(dist);
    }
    candidates += r.end - r.begin;
  });
  // The insert buffer (bounded by the flush threshold) is scanned with
  // one CodeSet range call.
  std::vector<kernels::SlotDistance> hits;
  kernels::VerticalScanStats planes;
  HAMMING_RETURN_NOT_OK(buffer_codes_.WithinDistance(query, h, &hits, &planes));
  for (const auto& hit : hits) {
    out->ids.push_back(buffer_ids_[hit.slot]);
    out->distances.push_back(hit.dist);
  }
  out->has_distances = true;
  ++stats.kernel_batch_calls;
  stats.candidates_generated += candidates + buffer_ids_.size();
  stats.exact_distance_computations += buffer_ids_.size();
  stats.results += out->ids.size();
  stats.planes_scanned += planes.planes_scanned;
  stats.blocks_pruned += planes.blocks_pruned;
  stats.blocks_skipped += planes.blocks_skipped;
  return Status::OK();
}

Result<std::vector<BinaryCode>> DynamicHAIndex::SearchCodes(
    const BinaryCode& query, std::size_t h, obs::QueryStats* stats) const {
  if (code_bits_ != 0 && query.size() != code_bits_) {
    return Status::InvalidArgument("query length mismatch");
  }
  std::vector<BinaryCode> out;
  Walk(query, h, stats, [&](uint32_t leaf, uint32_t) {
    if (frequency_[leaf] != 0) out.push_back(LeafCode(leaf));
  });
  const std::size_t leaves = out.size();
  std::vector<kernels::SlotDistance> hits;
  HAMMING_RETURN_NOT_OK(buffer_codes_.WithinDistance(query, h, &hits));
  for (const auto& hit : hits) out.push_back(buffer_codes_.Get(hit.slot));
  if (stats != nullptr) {
    ++stats->kernel_batch_calls;
    stats->candidates_generated += leaves + buffer_ids_.size();
    stats->exact_distance_computations += buffer_ids_.size();
    stats->results += out.size();
  }
  return out;
}

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
  const std::size_t nw = LaneWords();

  // Dual traversal over subtree pairs. The lower bound on ||r, s||_h for
  // any r below `a` and s below `b` is the count of differing bits on the
  // positions both cumulative patterns determine; at leaf x leaf both
  // masks cover all L bits, so the bound is the exact distance.
  // Expansion policy: expand the side whose pattern determines fewer
  // positions (the less constrained one); a leaf is never expanded.
  std::vector<std::pair<uint32_t, uint32_t>> stack;
  for (uint32_t ra = 0; ra < num_roots_; ++ra) {
    for (uint32_t rb = 0; rb < other.num_roots_; ++rb) {
      stack.emplace_back(ra, rb);
    }
  }
  while (!stack.empty()) {
    auto [a, b] = stack.back();
    stack.pop_back();
    if (frequency_[a] == 0 || other.frequency_[b] == 0) continue;
    const uint64_t* la = cumulative_.data() + 2 * nw * a;
    const uint64_t* lb = other.cumulative_.data() + 2 * nw * b;
    std::size_t bound = 0;
    for (std::size_t w = 0; w < nw; ++w) {
      bound += static_cast<std::size_t>(std::popcount(
          (la[2 * w] ^ lb[2 * w]) & la[2 * w + 1] & lb[2 * w + 1]));
    }
    if (bound > h) continue;
    const bool a_leaf = is_leaf_[a] != 0;
    const bool b_leaf = other.is_leaf_[b] != 0;
    if (a_leaf && b_leaf) {
      // Exact distance == the bound, already known <= h.
      for (uint32_t i = range_[a].begin; i < range_[a].end; ++i) {
        for (uint32_t j = other.range_[b].begin; j < other.range_[b].end; ++j) {
          out.push_back({tuple_ids_[i], other.tuple_ids_[j]});
        }
      }
      continue;
    }
    const bool expand_a =
        !a_leaf && (b_leaf || MaskBits(la, nw) <= MaskBits(lb, nw));
    if (expand_a) {
      for (uint32_t c = range_[a].begin; c < range_[a].end; ++c) {
        stack.emplace_back(c, b);
      }
    } else {
      for (uint32_t c = other.range_[b].begin; c < other.range_[b].end; ++c) {
        stack.emplace_back(a, c);
      }
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
  // The other side's buffered inserts probe only this forest (buffer x
  // buffer pairs were covered above, since other.SearchBatch scans
  // other's buffer).
  for (std::size_t j = 0; j < other.buffer_ids_.size(); ++j) {
    const TupleId sid = other.buffer_ids_[j];
    Walk(other.buffer_codes_.Get(j), h, nullptr, [&](uint32_t leaf, uint32_t) {
      for (uint32_t i = range_[leaf].begin; i < range_[leaf].end; ++i) {
        out.push_back({tuple_ids_[i], sid});
      }
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Whole-structure views
// ---------------------------------------------------------------------------

BinaryCode DynamicHAIndex::LeafCode(uint32_t leaf) const {
  const std::size_t nw = LaneWords();
  return LaneCode(cumulative_.data() + 2 * nw * leaf, nw, code_bits_, 0);
}

std::size_t DynamicHAIndex::LiveChildren(uint32_t node) const {
  std::size_t live = 0;
  for (uint32_t c = range_[node].begin; c < range_[node].end; ++c) {
    live += frequency_[c] != 0 ? 1 : 0;
  }
  return live;
}

HAIndexStats DynamicHAIndex::Stats() const {
  HAIndexStats stats;
  // Depth = longest root-to-leaf chain over live nodes; in BFS order a
  // parent's depth is known before its children's.
  std::vector<std::size_t> depth(is_leaf_.size(), 0);
  for (uint32_t i = 0; i < is_leaf_.size(); ++i) {
    if (frequency_[i] == 0) continue;
    depth[i] = parent_[i] == kNoNode ? 1 : depth[parent_[i]] + 1;
    if (is_leaf_[i] != 0) {
      ++stats.num_leaves;
      stats.depth = std::max(stats.depth, depth[i]);
    } else {
      ++stats.num_internal_nodes;
      stats.num_edges += LiveChildren(i);
    }
  }
  return stats;
}

std::vector<std::pair<TupleId, BinaryCode>> DynamicHAIndex::ExportTuples()
    const {
  std::vector<std::pair<TupleId, BinaryCode>> out;
  out.reserve(num_tuples_);
  for (uint32_t i = 0; i < is_leaf_.size(); ++i) {
    if (is_leaf_[i] == 0 || range_[i].begin == range_[i].end) continue;
    const BinaryCode code = LeafCode(i);
    for (uint32_t k = range_[i].begin; k < range_[i].end; ++k) {
      out.emplace_back(tuple_ids_[k], code);
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
  // Arena shape: one entry per node in every array, roots first.
  const std::size_t n = is_leaf_.size();
  const std::size_t nw = LaneWords();
  if (range_.size() != n || parent_.size() != n || frequency_.size() != n ||
      residual_.size() != 2 * nw * n || cumulative_.size() != 2 * nw * n ||
      num_roots_ > n) {
    return Status::IndexError("arena arrays disagree on the node count");
  }
  // Every live node's frequency is the number of live tuples below it;
  // leaves carry their id-range size. Children follow their parent, point
  // back at it, and their residual is their pattern minus the parent's.
  std::size_t leaf_tuples = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const Range r = range_[i];
    if (r.begin > r.end) return Status::IndexError("inverted node range");
    if (frequency_[i] == 0) {
      if (r.begin != r.end) {
        return Status::IndexError("dead node still has a non-empty range");
      }
      continue;
    }
    if ((parent_[i] == kNoNode) != (i < num_roots_)) {
      return Status::IndexError("root range and parent entries disagree");
    }
    const uint64_t* cum = cumulative_.data() + 2 * nw * i;
    const uint64_t* res = residual_.data() + 2 * nw * i;
    const uint64_t* up = parent_[i] == kNoNode
                             ? nullptr
                             : cumulative_.data() + 2 * nw * parent_[i];
    for (std::size_t w = 0; w < nw; ++w) {
      const uint64_t mask =
          up == nullptr ? cum[2 * w + 1] : cum[2 * w + 1] & ~up[2 * w + 1];
      if (res[2 * w + 1] != mask || res[2 * w] != (cum[2 * w] & mask)) {
        return Status::IndexError("residual != pattern minus the parent's");
      }
    }
    if (is_leaf_[i] != 0) {
      if (r.end > tuple_ids_.size()) {
        return Status::IndexError("leaf range past the tuple-id array");
      }
      if (opts_.store_tuple_ids && frequency_[i] != r.end - r.begin) {
        return Status::IndexError("leaf frequency != tuple-id count");
      }
      leaf_tuples += frequency_[i];
      continue;
    }
    if (r.begin <= i || r.end > n) {
      return Status::IndexError("children do not follow their parent");
    }
    uint64_t below = 0;
    for (uint32_t c = r.begin; c < r.end; ++c) {
      if (parent_[c] != i) {
        return Status::IndexError("child does not point back at its parent");
      }
      below += frequency_[c];
    }
    if (frequency_[i] != below) {
      return Status::IndexError("internal frequency != sum of children");
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
  // Adopt the other forest wholesale after this one's nodes.
  Draft d = ToDraft();
  const Draft o = other.ToDraft();
  const auto offset = static_cast<uint32_t>(d.size());
  const auto id_offset = static_cast<uint32_t>(d.tuple_ids.size());
  d.cumulative.insert(d.cumulative.end(), o.cumulative.begin(),
                      o.cumulative.end());
  d.is_leaf.insert(d.is_leaf.end(), o.is_leaf.begin(), o.is_leaf.end());
  d.frequency.insert(d.frequency.end(), o.frequency.begin(), o.frequency.end());
  for (Range r : o.ids) {
    d.ids.push_back({r.begin + id_offset, r.end + id_offset});
  }
  d.tuple_ids.insert(d.tuple_ids.end(), o.tuple_ids.begin(), o.tuple_ids.end());

  // Root-level consolidation: a remote root with the same FLSSeq as an
  // internal root already kept folds into it (Section 5.2's merge of
  // same-pattern non-leaf nodes; children residuals stay valid because
  // the shared pattern — hence the covered positions — is identical).
  Draft::PatternSet by_pattern = d.NewPatternSet();
  for (uint32_t r : d.roots) {
    if (d.is_leaf[r] == 0) by_pattern.insert(r);
  }
  std::vector<uint32_t> target(o.size(), kNoNode);
  for (uint32_t r : o.roots) {
    const uint32_t nr = r + offset;
    if (o.is_leaf[r] == 0) {
      const auto [it, added] = by_pattern.insert(nr);
      if (!added) {
        target[r] = *it;
        continue;
      }
    }
    d.roots.push_back(nr);
  }
  for (const auto& [p, c] : o.edges) {
    d.edges.emplace_back(target[p] != kNoNode ? target[p] : p + offset,
                         c + offset);
  }
  for (std::size_t i = 0; i < other.buffer_ids_.size(); ++i) {
    HAMMING_RETURN_NOT_OK(buffer_codes_.Append(other.buffer_codes_.Get(i)));
    buffer_ids_.push_back(other.buffer_ids_[i]);
  }
  num_tuples_ += other.num_tuples_;
  return Layout(std::move(d));
}

MemoryBreakdown DynamicHAIndex::Memory() const {
  MemoryBreakdown mb;
  const std::size_t code_bytes = (code_bits_ + 7) / 8;
  for (uint32_t i = 0; i < is_leaf_.size(); ++i) {
    if (frequency_[i] == 0) continue;
    if (is_leaf_[i] != 0) {
      // Leaf payload: the full code plus its tuple-id hash table.
      mb.leaf_bytes += code_bytes +
                       (range_[i].end - range_[i].begin) * sizeof(TupleId);
    } else {
      // Internal payload: the residual (value + mask), a frequency and
      // one child pointer per live child.
      mb.internal_bytes += 2 * code_bytes + sizeof(uint32_t) +
                           LiveChildren(i) * sizeof(uint32_t);
    }
  }
  // Buffered inserts count as leaf payload.
  mb.leaf_bytes += buffer_ids_.size() * (sizeof(TupleId) + code_bytes);
  return mb;
}

// ---------------------------------------------------------------------------
// Serialization: per node residual, cumulative, parent, children, tuple
// ids, frequency and leaf flag; then the roots and the insert buffer.
// ---------------------------------------------------------------------------

void DynamicHAIndex::Serialize(BufferWriter* w) const {
  // Live nodes only, numbered in arena order.
  const std::size_t n = is_leaf_.size();
  const std::size_t nw = LaneWords();
  std::vector<uint32_t> remap(n, kNoNode);
  uint32_t live = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (frequency_[i] != 0) remap[i] = live++;
  }
  w->PutVarint64(opts_.store_tuple_ids ? 1 : 0);
  w->PutVarint64(opts_.window);
  w->PutVarint64(opts_.max_depth);
  w->PutVarint64(code_bits_);
  w->PutVarint64(num_tuples_);
  w->PutVarint64(live);
  for (uint32_t i = 0; i < n; ++i) {
    if (remap[i] == kNoNode) continue;
    for (const auto* lanes : {residual_.data(), cumulative_.data()}) {
      LaneCode(lanes + 2 * nw * i, nw, code_bits_, 0).Serialize(w);
      LaneCode(lanes + 2 * nw * i, nw, code_bits_, 1).Serialize(w);
    }
    w->PutVarint64Signed(parent_[i] == kNoNode ? -1 : remap[parent_[i]]);
    const Range r = range_[i];
    if (is_leaf_[i] != 0) {
      w->PutVarint64(0);
      w->PutVarint64(r.end - r.begin);
      for (uint32_t k = r.begin; k < r.end; ++k) w->PutVarint64(tuple_ids_[k]);
    } else {
      w->PutVarint64(LiveChildren(i));
      for (uint32_t c = r.begin; c < r.end; ++c) {
        if (remap[c] != kNoNode) w->PutVarint64(remap[c]);
      }
      w->PutVarint64(0);
    }
    w->PutVarint64(frequency_[i]);
    w->PutVarint64(is_leaf_[i]);
  }
  uint32_t roots = 0;
  for (uint32_t r = 0; r < num_roots_; ++r) roots += remap[r] != kNoNode;
  w->PutVarint64(roots);
  for (uint32_t r = 0; r < num_roots_; ++r) {
    if (remap[r] != kNoNode) w->PutVarint64(remap[r]);
  }
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
  const std::size_t nw = idx.LaneWords();
  Draft d(nw);
  Lanes pattern{};
  for (uint64_t k = 0; k < num_nodes; ++k) {
    // The residual (value, mask) comes first; it is derived again from
    // the cumulative patterns, so the cumulative pair overwrites it.
    BinaryCode value, mask;
    HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(r, &value));
    HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(r, &mask));
    HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(r, &value));
    HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(r, &mask));
    if (value.size() != code_bits || mask.size() != code_bits) {
      return Status::IOError("corrupt node pattern length");
    }
    for (std::size_t w = 0; w < nw; ++w) {
      pattern[2 * w] = value.words()[w];
      pattern[2 * w + 1] = mask.words()[w];
    }
    // Parents follow from the child lists.
    int64_t parent;
    HAMMING_RETURN_NOT_OK(r->GetVarint64Signed(&parent));
    uint64_t nc;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&nc));
    if (nc > r->remaining()) return Status::IOError("corrupt children count");
    for (uint64_t c = 0; c < nc; ++c) {
      uint64_t v;
      HAMMING_RETURN_NOT_OK(r->GetVarint64(&v));
      if (v >= num_nodes) return Status::IOError("corrupt child reference");
      d.edges.emplace_back(static_cast<uint32_t>(k), static_cast<uint32_t>(v));
    }
    uint64_t nt;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&nt));
    if (nt > r->remaining()) return Status::IOError("corrupt tuple count");
    Range slice;
    slice.begin = static_cast<uint32_t>(d.tuple_ids.size());
    for (uint64_t t = 0; t < nt; ++t) {
      uint64_t v;
      HAMMING_RETURN_NOT_OK(r->GetVarint64(&v));
      d.tuple_ids.push_back(static_cast<TupleId>(v));
    }
    uint64_t freq, leaf;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&freq));
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&leaf));
    if (leaf == 0 || !idx.opts_.store_tuple_ids) {
      d.tuple_ids.resize(slice.begin);  // only leafful leaves keep ids
    } else if (freq != nt) {
      return Status::IOError("corrupt leaf frequency");
    }
    if (freq > UINT32_MAX) return Status::IOError("corrupt frequency");
    slice.end = static_cast<uint32_t>(d.tuple_ids.size());
    d.AddNode(pattern.data(), leaf != 0, static_cast<uint32_t>(freq), slice);
  }
  uint64_t nr;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&nr));
  if (nr > r->remaining()) return Status::IOError("corrupt root count");
  for (uint64_t i = 0; i < nr; ++i) {
    uint64_t v;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&v));
    if (v >= num_nodes) return Status::IOError("corrupt root reference");
    d.roots.push_back(static_cast<uint32_t>(v));
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
  // Structural validation happens in the layout pass: a cycle, a shared
  // child or a dangling reference is an IOError, never a later hang.
  HAMMING_RETURN_NOT_OK(idx.Layout(std::move(d)));
  uint64_t forest_tuples = 0;
  for (uint32_t i = 0; i < idx.num_roots_; ++i) {
    forest_tuples += idx.frequency_[i];
  }
  if (forest_tuples + idx.buffer_ids_.size() != num_tuples) {
    return Status::IOError("corrupt HA-Index tuple count");
  }
  return idx;
}

}  // namespace hamming
