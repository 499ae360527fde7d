#include "ops/operators.h"

#include <algorithm>
#include <span>

#include "common/sync.h"
#include "join/centralized_join.h"
#include "kernels/code_set.h"

namespace hamming::ops {

namespace {

// Builds the configured index over a table's codes.
Result<DynamicHAIndex> BuildIndex(const HammingTable& t,
                                  const DynamicHAIndexOptions& opts) {
  DynamicHAIndex index(opts);
  HAMMING_RETURN_NOT_OK(index.Build(t.codes()));
  return index;
}

// One coalesced range batch: queries[i] answered into out[i]. The index's
// SearchBatch plan streams the stored codes once for the whole span; any
// per-request failure aborts the operator (requests here are internally
// generated, never user-malformed).
Status BatchSelectInto(const HammingIndex& index,
                       std::span<const BinaryCode> queries, std::size_t h,
                       std::span<std::vector<TupleId>> out) {
  std::vector<QueryRequest> reqs(queries.size());
  std::vector<QueryResponse> resps(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    reqs[i] = QueryRequest::Range(queries[i], h);
  }
  HAMMING_RETURN_NOT_OK(index.SearchBatch(reqs, resps));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    HAMMING_RETURN_NOT_OK(resps[i].status);
    out[i] = std::move(resps[i].ids);
  }
  return Status::OK();
}

// Queries per parallel chunk: wide enough that the multi-query kernel
// has a real batch to coalesce, small enough to spread across the pool.
constexpr std::size_t kParallelBatch = 32;

}  // namespace

Result<std::vector<TupleId>> HammingSelect(const HammingTable& s,
                                           const BinaryCode& query,
                                           std::size_t h,
                                           const OperatorOptions& opts) {
  HAMMING_ASSIGN_OR_RETURN(std::vector<std::vector<TupleId>> out,
                           HammingSelectBatch(s, {query}, h, opts));
  return std::move(out[0]);
}

Result<std::vector<std::vector<TupleId>>> HammingSelectBatch(
    const HammingTable& s, const std::vector<BinaryCode>& queries,
    std::size_t h, const OperatorOptions& opts) {
  std::vector<std::vector<TupleId>> out(queries.size());
  if (opts.plan == JoinPlan::kNestedLoops) {
    // Pack once; slot i is tuple id i. The set sends each query to the
    // plane scan or to one tile-major pass shared by the batch.
    HAMMING_ASSIGN_OR_RETURN(kernels::CodeSet set,
                             kernels::CodeSet::FromCodes(s.codes()));
    std::vector<const BinaryCode*> qptrs;
    qptrs.reserve(queries.size());
    for (const BinaryCode& q : queries) qptrs.push_back(&q);
    const std::vector<std::size_t> radii(queries.size(), h);
    std::vector<kernels::SetAnswer> answers;
    set.MultiWithinDistance(qptrs.data(), radii.data(), queries.size(),
                            &answers);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      HAMMING_RETURN_NOT_OK(answers[q].status);
      out[q].reserve(answers[q].hits.size());
      for (const auto& hit : answers[q].hits) out[q].push_back(hit.slot);
    }
    return out;
  }
  HAMMING_ASSIGN_OR_RETURN(DynamicHAIndex index, BuildIndex(s, opts.index));
  if (opts.pool == nullptr) {
    HAMMING_RETURN_NOT_OK(BatchSelectInto(index, queries, h, out));
    return out;
  }
  // Parallel probing: the index is immutable during the batch, so worker
  // threads share it without synchronization. Each task answers one
  // contiguous chunk through the coalesced batch plan.
  const std::size_t nchunks =
      (queries.size() + kParallelBatch - 1) / kParallelBatch;
  Mutex error_mu;
  Status first_error = Status::OK();
  ParallelFor(opts.pool, nchunks, [&](std::size_t c) {
    const std::size_t begin = c * kParallelBatch;
    const std::size_t count = std::min(kParallelBatch, queries.size() - begin);
    Status st = BatchSelectInto(
        index, std::span<const BinaryCode>(queries).subspan(begin, count), h,
        std::span<std::vector<TupleId>>(out).subspan(begin, count));
    if (!st.ok()) {
      MutexLock lock(&error_mu);
      if (first_error.ok()) first_error = st;
    }
  });
  if (!first_error.ok()) return first_error;
  return out;
}

Result<std::vector<JoinPair>> HammingJoin(const HammingTable& r,
                                          const HammingTable& s,
                                          std::size_t h,
                                          const OperatorOptions& opts) {
  if (!r.codes().empty() && !s.codes().empty() &&
      r.code_bits() != s.code_bits()) {
    return Status::InvalidArgument("joining tables of different code length");
  }
  switch (opts.plan) {
    case JoinPlan::kNestedLoops:
      return NestedLoopsJoin(r.codes(), s.codes(), h);
    case JoinPlan::kIndexProbe: {
      // HA-Index on R, one h-select per S tuple.
      HAMMING_ASSIGN_OR_RETURN(std::vector<std::vector<TupleId>> matches,
                               HammingSelectBatch(r, s.codes(), h, opts));
      std::vector<JoinPair> out;
      for (std::size_t j = 0; j < matches.size(); ++j) {
        for (TupleId rid : matches[j]) {
          out.push_back({rid, static_cast<TupleId>(j)});
        }
      }
      return out;
    }
    case JoinPlan::kDualTree: {
      HAMMING_ASSIGN_OR_RETURN(DynamicHAIndex r_index,
                               BuildIndex(r, opts.index));
      HAMMING_ASSIGN_OR_RETURN(DynamicHAIndex s_index,
                               BuildIndex(s, opts.index));
      return r_index.JoinWith(s_index, h);
    }
  }
  return Status::InvalidArgument("unknown join plan");
}

Result<std::vector<TupleId>> SimilarityIntersect(const HammingTable& r,
                                                 const HammingTable& s,
                                                 std::size_t h,
                                                 const OperatorOptions& opts) {
  // Semi-join: index S once, probe with each R tuple, keep the ids whose
  // probe found anything (existence is enough — no pair materialization).
  if (opts.plan == JoinPlan::kNestedLoops) {
    std::vector<TupleId> out;
    for (std::size_t i = 0; i < r.codes().size(); ++i) {
      for (const auto& sc : s.codes()) {
        if (r.codes()[i].WithinDistance(sc, h)) {
          out.push_back(static_cast<TupleId>(i));
          break;
        }
      }
    }
    return out;
  }
  HAMMING_ASSIGN_OR_RETURN(std::vector<std::vector<TupleId>> matches,
                           HammingSelectBatch(s, r.codes(), h, opts));
  std::vector<TupleId> out;
  for (std::size_t i = 0; i < matches.size(); ++i) {
    if (!matches[i].empty()) out.push_back(static_cast<TupleId>(i));
  }
  return out;
}

Result<std::vector<TupleId>> SimilarityDifference(
    const HammingTable& r, const HammingTable& s, std::size_t h,
    const OperatorOptions& opts) {
  HAMMING_ASSIGN_OR_RETURN(std::vector<TupleId> in,
                           SimilarityIntersect(r, s, h, opts));
  std::vector<bool> present(r.size(), false);
  for (TupleId id : in) present[id] = true;
  std::vector<TupleId> out;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!present[i]) out.push_back(static_cast<TupleId>(i));
  }
  return out;
}

}  // namespace hamming::ops
