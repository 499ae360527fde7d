// Batch-first query surface of the index layer.
//
// A QueryRequest describes one range (h-select) or kNN query; the batch
// entry points HammingIndex::SearchBatch / KnnBatch take a span of them
// and fill one QueryResponse per request. The serving layer
// (src/serving/) coalesces concurrent in-flight queries into these
// batches so the kernel-level amortization (one store stream shared by
// every query in the batch — kernels::MultiWithinDistance/MultiKnn) is
// harvested across *queries*, not just across stored codes.
//
// Ids, distances and statuses are per-request: a malformed query fails
// its own response without poisoning the rest of the batch.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "code/binary_code.h"
#include "common/status.h"
#include "observability/query_stats.h"

namespace hamming {

/// \brief Identifier of a tuple within a dataset (its row number).
/// (hamming_index.h declares the same alias; both name uint32_t.)
using TupleId = uint32_t;

/// \brief Which query family a QueryRequest carries.
enum class QueryKind : uint8_t {
  kRange,  // h-select: all tuples within Hamming distance h
  kKnn,    // k nearest tuples by Hamming distance
};

/// \brief One range or kNN query against a HammingIndex.
struct QueryRequest {
  QueryKind kind = QueryKind::kRange;
  BinaryCode code;
  std::size_t h = 0;  // range radius (kind == kRange)
  std::size_t k = 0;  // neighbour count (kind == kKnn)

  static QueryRequest Range(BinaryCode query_code, std::size_t radius) {
    QueryRequest r;
    r.kind = QueryKind::kRange;
    r.code = std::move(query_code);
    r.h = radius;
    return r;
  }
  static QueryRequest Knn(BinaryCode query_code, std::size_t neighbours) {
    QueryRequest r;
    r.kind = QueryKind::kKnn;
    r.code = std::move(query_code);
    r.k = neighbours;
    return r;
  }
};

/// \brief The result of one QueryRequest.
///
/// Range queries fill `ids` (order unspecified); when the index produced
/// exact distances as a by-product (`has_distances`), `distances[i]` is
/// the Hamming distance of `ids[i]`. kNN queries fill `neighbors` as
/// (id, distance) ascending. `stats` accumulates the index's work
/// counters for this request alone.
struct QueryResponse {
  Status status = Status::OK();
  std::vector<TupleId> ids;                     // kRange matches
  std::vector<uint32_t> distances;              // parallel to ids
  bool has_distances = false;
  std::vector<std::pair<TupleId, uint32_t>> neighbors;  // kKnn
  obs::QueryStats stats;

  /// \brief Resets to the default-constructed state (the batch defaults
  /// reuse responses across retries/rounds).
  void Clear() {
    status = Status::OK();
    ids.clear();
    distances.clear();
    has_distances = false;
    neighbors.clear();
    stats = obs::QueryStats();
  }
};

}  // namespace hamming
