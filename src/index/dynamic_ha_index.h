// Dynamic HA-Index (Sections 4.4 - 4.6): the paper's primary contribution.
//
// Structure. A forest whose leaves are the distinct binary codes of the
// dataset (with the tuple ids carrying each code) and whose internal
// nodes carry FLSSeq patterns shared by all leaves below. Each node
// stores its *residual* pattern — the effective positions not already
// covered by an ancestor — so the masks along any root-to-leaf path
// partition the L bit positions and partial distances accumulated down a
// path sum to the exact Hamming distance at the leaf. Pruning on the
// accumulated distance is therefore safe (Proposition 1) and the leaf
// test needs no re-verification.
//
// Layout. The forest is one flat struct-of-arrays arena in breadth-first
// order: the roots are nodes [0, R), and the children of each internal
// node are one contiguous id range (CSR offsets), so siblings sit side by
// side. Per node the arena holds
//   * the residual (value, mask) over SignificantWords() words only — the
//     lanes H-Search reads for every child it tests;
//   * the cumulative pattern in a second lane array, for H-Build,
//     JoinWith and leaf codes (a leaf's cumulative value is its code);
//   * one range: an internal node's children, or a leaf's slice of the
//     single tuple-id array;
//   * its parent and frequency (live tuples below).
// Every structural rebuild — H-Build, the insert-buffer flush, MergeFrom
// and Deserialize — assembles a draft forest with explicit child lists
// and ends in one layout pass. The pass numbers the reachable live nodes
// in BFS order, recomputes internal frequencies, drops dead nodes, and
// refuses a draft that reaches any node twice (a cycle or a shared child).
//
// H-Build (Algorithm 1). Codes are sorted in Gray order (Proposition 2:
// neighbours share long FLSSeqs), then scanned with a sliding window of w
// slots; each window's maximal common FLSSeq becomes a parent node, nodes
// with identical patterns are consolidated, and windows with no shared
// pattern are linked directly to the top level. Levels are built bottom-up
// until the configured depth.
//
// H-Delete (Algorithm 2) finds the leaves matching the code on every
// position, swap-removes the tuple id inside its leaf's range and
// decrements frequencies up the parent chain. A node whose frequency
// reaches zero keeps its slot with an empty range, so it yields nothing;
// the next layout pass drops it. Insert (Section 4.5) goes to a temporary
// buffer; when the buffer fills, an H-Build over the buffered tuples adds
// new subtrees and the whole forest is laid out again (one pass over every
// node per insert_flush_threshold inserts).
//
// H-Search (Algorithm 3) is a breadth-first walk over a flat frontier,
// testing a node's children only while the accumulated distance stays
// within h, and collecting tuple ids at qualifying leaves. The range
// query, SearchCodes, Delete and JoinWith's buffer probe share that one
// walk.
#pragma once

#include <cstdint>

#include "index/hamming_index.h"
#include "kernels/code_set.h"

namespace hamming {

/// \brief How H-Build orders codes before windowing (ablation knob; the
/// paper prescribes Gray order, Proposition 2).
enum class BuildSortMode {
  kGray,          // the paper's choice
  kLexicographic, // plain binary sort (prefix clustering only)
  kNone,          // input order (no clustering)
};

/// \brief Tuning parameters of H-Build (the Figure 8 sweep).
struct DynamicHAIndexOptions {
  /// Sliding-window slots w of Algorithm 1.
  std::size_t window = 8;
  /// Pre-windowing sort order (ablation; Gray is the paper's design).
  BuildSortMode sort_mode = BuildSortMode::kGray;
  /// Maximum index depth md (number of internal levels above the leaves).
  std::size_t max_depth = 16;
  /// Buffered inserts accumulated before an incremental H-Build.
  std::size_t insert_flush_threshold = 1024;
  /// When false the index keeps no tuple-id hash tables at the leaves:
  /// SearchBatch is unavailable but SearchCodes still works. This is the
  /// leafless mode Section 5.3's MapReduce Option B broadcasts.
  bool store_tuple_ids = true;
};

/// \brief Statistics exposed for the Section 4.7 analysis tests.
struct HAIndexStats {
  std::size_t num_internal_nodes = 0;
  std::size_t num_leaves = 0;
  std::size_t num_edges = 0;
  std::size_t depth = 0;
};

/// \brief The Dynamic HA-Index.
class DynamicHAIndex final : public HammingIndex {
 public:
  explicit DynamicHAIndex(DynamicHAIndexOptions opts = {}) : opts_(opts) {}

  std::string name() const override { return "DHA-Index"; }

  Status Build(const std::vector<BinaryCode>& codes) override;

  /// \brief Bulk H-Build where tuple ids are supplied by the caller
  /// (MapReduce reducers index partition tuples whose ids are global row
  /// numbers, not local positions).
  Status BuildWithIds(const std::vector<TupleId>& ids,
                      const std::vector<BinaryCode>& codes);

  Status Insert(TupleId id, const BinaryCode& code) override;
  Status Delete(TupleId id, const BinaryCode& code) override;
  std::size_t size() const override { return num_tuples_; }
  MemoryBreakdown Memory() const override;

  /// \brief Qualifying distinct *codes* within distance h (works in
  /// leafless mode; used by MapReduce Option B, Section 5.3).
  Result<std::vector<BinaryCode>> SearchCodes(
      const BinaryCode& query, std::size_t h,
      obs::QueryStats* stats = nullptr) const;

  /// \brief Dual-tree Hamming join (extension beyond the paper): joins
  /// this index (R side) with another (S side) by simultaneous traversal.
  ///
  /// For a pair of nodes the count of differing bits on the positions
  /// *both* cumulative patterns determine is a lower bound on the
  /// distance of every (r, s) pair below them, so whole subtree pairs are
  /// pruned at once — the paper's per-tuple H-Search probing repeats the
  /// R-side descent for every S tuple instead. Both indexes must store
  /// tuple ids. Pairs are (id in this, id in other).
  Result<std::vector<JoinPair>> JoinWith(const DynamicHAIndex& other,
                                         std::size_t h) const;

  /// \brief Structural statistics (node/edge counts, depth).
  HAIndexStats Stats() const;

  /// \brief The indexed corpus as (id, code) pairs — leaf walk plus the
  /// insert buffer, order unspecified. Requires store_tuple_ids. The
  /// epoch layer's snapshot tests use it as the frozen ground truth;
  /// rebuilds of a wrapped index source from it.
  std::vector<std::pair<TupleId, BinaryCode>> ExportTuples() const;

  /// \brief Audits the SwapRemove-era cross-structure invariants after a
  /// mutation stream: the insert buffer's ids and codes agree slot for
  /// slot (and its bit-plane copy, when present, is the exact transpose
  /// of its word lanes); in the arena, children follow and point back at
  /// their parent, each residual is its pattern minus the parent's, dead
  /// nodes have empty ranges, and every live frequency equals the live
  /// tuples below it; size() equals leaves + buffer.
  /// Returns the first violated invariant; OK when consistent. Test and
  /// debug hook — walks the whole structure, not for hot paths.
  Status CheckConsistency() const;

  /// \brief Merges another HA-Index into this one (the global-index merge
  /// of Section 5.2): the other forest's roots are adopted, and roots
  /// whose FLSSeq equals an existing root's are consolidated.
  Status MergeFrom(const DynamicHAIndex& other);

  /// \brief Serialization for the MapReduce distributed cache.
  void Serialize(BufferWriter* w) const;
  static Result<DynamicHAIndex> Deserialize(BufferReader* r);

  const DynamicHAIndexOptions& options() const { return opts_; }

 protected:
  /// \brief H-Search plus the insert-buffer scan for one range query.
  /// Every response carries per-match exact distances (`has_distances`)
  /// at no extra traversal cost — the accumulated residual distances at
  /// a qualifying leaf sum to the full distance — which lets the default
  /// KnnBatch expand the radius geometrically (O(log L) rounds).
  Status SearchOne(const BinaryCode& query, std::size_t h,
                   QueryResponse* out) const override;

 private:
  // No node: a root's parent, an unset id.
  static constexpr uint32_t kNoNode = UINT32_MAX;

  /// Half-open range of node ids (an internal node's children) or of
  /// tuple_ids_ slots (a leaf's tuples).
  struct Range {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// A forest being assembled, in any node order with explicit child
  /// lists; Layout turns it into the arena (defined in the .cc).
  struct Draft;

  /// Words per (value, mask) lane pattern: SignificantWords() of a code.
  std::size_t LaneWords() const { return (code_bits_ + 63) / 64; }

  /// Runs Algorithm 1 over one batch of tuples, adding its leaves,
  /// internal nodes and roots to `draft`.
  void BuildInto(const std::vector<TupleId>& ids,
                 const std::vector<BinaryCode>& codes, Draft* draft) const;
  /// The arena as a draft: every node with its child list, so a rebuild
  /// can add to it before the next layout.
  Draft ToDraft() const;
  /// Replaces the arena with the draft's reachable live nodes in BFS
  /// order. IOError if the draft reaches a node twice or references a
  /// node it does not hold.
  Status Layout(Draft draft);
  Status FlushBuffer();

  /// H-Search: calls visit(leaf, distance) for every leaf within h of
  /// `query`, in breadth-first order.
  template <typename Visit>
  void Walk(const BinaryCode& query, std::size_t h, obs::QueryStats* stats,
            Visit&& visit) const;

  /// A leaf's code (its cumulative value lanes).
  BinaryCode LeafCode(uint32_t leaf) const;
  /// Number of children of `node` with live tuples below them.
  std::size_t LiveChildren(uint32_t node) const;

  DynamicHAIndexOptions opts_;
  std::size_t code_bits_ = 0;
  std::size_t num_tuples_ = 0;
  // The arena, one entry per node in BFS order. Pattern lanes hold
  // 2 * LaneWords() words per node: word i's value at [2i], mask at
  // [2i + 1].
  std::vector<uint64_t> residual_;
  std::vector<uint64_t> cumulative_;
  std::vector<Range> range_;
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> frequency_;
  std::vector<uint8_t> is_leaf_;
  std::vector<TupleId> tuple_ids_;  // every leaf's ids, by leaf range
  uint32_t num_roots_ = 0;          // roots are nodes [0, num_roots_)
  // Insert buffer (Section 4.5): slot i holds tuple buffer_ids_[i] with
  // code buffer_codes_.Get(i), so the per-query buffer scan is one
  // CodeSet range call instead of one WithinDistance call per code.
  std::vector<TupleId> buffer_ids_;
  kernels::CodeSet buffer_codes_;
};

}  // namespace hamming
