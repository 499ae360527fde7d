// The common interface for every Hamming-select index in the library
// (Section 3: h-select(tq, S) returns all tuples within Hamming distance h
// of the query's binary code).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "code/binary_code.h"
#include "common/result.h"
#include "common/status.h"
#include "index/query.h"
#include "observability/memtrack.h"
#include "observability/query_stats.h"

namespace hamming {

// MemoryBreakdown is part of the index API (every index reports its
// footprint through Memory()); re-exported here so implementations and
// callers keep using the unqualified name.
using obs::MemoryBreakdown;

/// \brief Identifier of a tuple within a dataset (its row number).
using TupleId = uint32_t;

/// \brief One Hamming-join result pair: (id in R, id in S).
struct JoinPair {
  TupleId r;
  TupleId s;
  bool operator==(const JoinPair& other) const {
    return r == other.r && s == other.s;
  }
  bool operator<(const JoinPair& other) const {
    if (r != other.r) return r < other.r;
    return s < other.s;
  }
};

/// \brief Abstract index over a collection of equal-length binary codes
/// answering Hamming range queries.
///
/// Implementations: LinearScanIndex, MultiHashTableIndex, HEngineIndex,
/// HmSearchIndex, RadixTreeIndex, StaticHAIndex, DynamicHAIndex,
/// ConcurrentHAIndex.
///
/// Queries are batch-only: SearchBatch and KnnBatch are the whole public
/// query surface, since the paper's operators (h-select and h-join over
/// relations, §3) and its reducers (§5) probe an index with many tuples
/// at once. A family implements one range query in the protected
/// SearchOne hook, which the default SearchBatch loops, or overrides
/// SearchBatch with a coalesced plan. Nothing outside the class can
/// reach a per-query entry; tests/test_indexes.cc checks that at compile
/// time for every family.
///
/// Thread contract: the const entry points are safe to call from many
/// threads concurrently as long as no thread mutates the index — plain
/// indexes are externally synchronized. ConcurrentHAIndex is the
/// internally synchronized exception: its readers may overlap an
/// Insert/Delete stream and each batch call is answered against one
/// published epoch snapshot (see index/concurrent_ha_index.h).
class HammingIndex {
 public:
  virtual ~HammingIndex() = default;

  /// \brief Human-readable name used by the bench harnesses
  /// ("DHA-Index", "MH-4", ...).
  virtual std::string name() const = 0;

  /// \brief Bulk-loads the index over codes[0..n); tuple i gets id i.
  /// Replaces any previous contents.
  virtual Status Build(const std::vector<BinaryCode>& codes) = 0;

  /// \brief Range query (h-select): answers requests[i] (its `code`/`h`
  /// fields, whatever its `kind`) into responses[i].ids, all tuple ids
  /// within Hamming distance h of the code, in unspecified order. When
  /// the plan knows each match's exact distance it fills
  /// responses[i].distances in parallel and sets `has_distances`. Each
  /// response's `stats` gets that request's work counters (see
  /// observability/query_stats.h for the per-family field semantics).
  ///
  /// Per-request failures land in responses[i].status; the returned
  /// Status is non-OK only for batch-level misuse (span size mismatch).
  /// Requests in one batch are independent — responses are
  /// byte-identical to issuing the same queries as batches of one.
  ///
  /// The default loops SearchOne. Indexes with a cheaper coalesced plan
  /// override it: LinearScanIndex routes the whole batch through one
  /// multi-query kernel pass (kernels::CodeSet::MultiWithinDistance)
  /// that streams the stored codes once for every query in the batch.
  virtual Status SearchBatch(std::span<const QueryRequest> requests,
                             std::span<QueryResponse> responses) const;

  /// \brief kNN query: answers requests[i] (its `code`/`k` fields) into
  /// responses[i].neighbors, the k stored tuples nearest to the code as
  /// (id, distance) by ascending distance (order among equal distances
  /// is unspecified; fewer than k when size() < k). Same per-request
  /// status contract as SearchBatch.
  ///
  /// The default runs KnnByExpansion per request; LinearScanIndex
  /// overrides it with one multi-query bounded-heap scan
  /// (kernels::CodeSet::MultiKnn).
  virtual Status KnnBatch(std::span<const QueryRequest> requests,
                          std::span<QueryResponse> responses) const;

  /// \brief Inserts one (id, code) pair.
  virtual Status Insert(TupleId id, const BinaryCode& code) = 0;

  /// \brief Removes one (id, code) pair; KeyError if absent.
  virtual Status Delete(TupleId id, const BinaryCode& code) = 0;

  /// \brief Number of indexed tuples.
  virtual std::size_t size() const = 0;

  /// \brief Structural memory accounting for the Table 4 comparison.
  virtual MemoryBreakdown Memory() const = 0;

 protected:
  /// \brief Shared guard of the batch entry points: the spans must pair
  /// up 1:1. Overrides call this first.
  static Status CheckBatchSpans(std::span<const QueryRequest> requests,
                                std::span<QueryResponse> responses);

  /// \brief The per-query hook the default SearchBatch loops: answers
  /// one range query into `out`, a cleared response. It appends the
  /// matching ids (and their distances with `has_distances`, when the
  /// family knows them) and adds its work counters to out->stats. A
  /// non-OK return becomes out->status, with the ids dropped. Families
  /// that override SearchBatch need not override it; the default
  /// returns NotImplemented.
  virtual Status SearchOne(const BinaryCode& query, std::size_t h,
                           QueryResponse* out) const;

  /// \brief The default KnnBatch plan for one request: expands the
  /// search radius through SearchBatch until k tuples qualify and writes
  /// the k nearest into out->neighbors.
  ///
  /// When the index reports per-match exact distances (has_distances),
  /// the radius grows geometrically (h = 0, 1, 3, 7, ...): the first
  /// radius with >= k matches already carries every distance needed to
  /// rank them, so the expansion costs O(log L) rounds. Without
  /// distances it takes the classic h += 1 steps, where the radius at
  /// which an id first appears is its exact distance; that path is exact
  /// wherever the range query is complete at arbitrary h (indexes with a
  /// bounded radius, e.g. MultiHashTableIndex, inherit that bound). An
  /// index whose responses drop distances after a geometric jump cannot
  /// be ranked, and gets IndexError. Each round is one radius_expansion
  /// in out->stats, and the tuples it re-surfaces from an earlier round
  /// count as rescanned_results — the re-scan waste the geometric
  /// expansion exists to avoid.
  Status KnnByExpansion(const BinaryCode& query, std::size_t k,
                        QueryResponse* out) const;
};

/// \brief Sorts a search result for deterministic comparison in tests.
inline std::vector<TupleId> Sorted(std::vector<TupleId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace hamming
