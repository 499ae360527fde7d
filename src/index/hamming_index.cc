#include "index/hamming_index.h"

#include <unordered_set>

namespace hamming {

Status HammingIndex::CheckBatchSpans(std::span<const QueryRequest> requests,
                                     std::span<QueryResponse> responses) {
  if (requests.size() != responses.size()) {
    return Status::InvalidArgument(
        "batch spans mismatch: " + std::to_string(requests.size()) +
        " requests vs " + std::to_string(responses.size()) + " responses");
  }
  return Status::OK();
}

Status HammingIndex::SearchOne(const BinaryCode&, std::size_t,
                               QueryResponse*) const {
  return Status::NotImplemented(name() + " has no per-query range hook");
}

Status HammingIndex::SearchBatch(std::span<const QueryRequest> requests,
                                 std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.Clear();
    Status st = SearchOne(requests[i].code, requests[i].h, &resp);
    if (!st.ok()) {
      resp.ids.clear();
      resp.distances.clear();
      resp.has_distances = false;
      resp.status = std::move(st);
    }
  }
  return Status::OK();
}

Status HammingIndex::KnnBatch(std::span<const QueryRequest> requests,
                              std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.Clear();
    Status st = KnnByExpansion(requests[i].code, requests[i].k, &resp);
    if (!st.ok()) {
      resp.neighbors.clear();
      resp.status = std::move(st);
    }
  }
  return Status::OK();
}

Status HammingIndex::KnnByExpansion(const BinaryCode& query, std::size_t k,
                                    QueryResponse* out) const {
  if (k == 0 || size() == 0) return Status::OK();
  // k >= size() degenerates to "every tuple with its distance": target
  // caps at size() so the expansion stops the moment all tuples have
  // been seen instead of probing the remaining radii.
  const std::size_t target = std::min(k, size());
  // No two L-bit codes are farther than L apart, so an index whose
  // range query is incomplete at large radii can under-fill the result
  // but can never drive the expansion past h = L.
  const std::size_t max_radius = query.size();

  QueryRequest req = QueryRequest::Range(query, 0);
  QueryResponse resp;

  // h += 1 expansion state: the answer at h is a superset of the answer
  // at h-1, so an id's first-seen radius is its exact Hamming distance —
  // valid only while every step so far was +1.
  bool first_seen_valid = true;
  std::unordered_set<TupleId> seen;
  std::vector<std::pair<TupleId, uint32_t>>& found = out->neighbors;

  std::size_t h = 0;
  std::size_t prior_results = 0;
  while (true) {
    req.h = h;
    HAMMING_RETURN_NOT_OK(SearchBatch({&req, 1}, {&resp, 1}));
    HAMMING_RETURN_NOT_OK(resp.status);
    ++out->stats.radius_expansions;
    // Everything an earlier round returned is re-scanned (and
    // re-returned) by this one: the pure waste of radius expansion.
    out->stats.rescanned_results += prior_results;
    out->stats += resp.stats;

    if (resp.has_distances) {
      // Every tuple within h is present with its exact distance; with
      // >= target of them the k nearest overall are all here.
      if (resp.ids.size() >= target || h >= max_radius) {
        found.clear();
        found.reserve(resp.ids.size());
        for (std::size_t i = 0; i < resp.ids.size(); ++i) {
          found.emplace_back(resp.ids[i], resp.distances[i]);
        }
        break;
      }
    } else if (!first_seen_valid) {
      // has_distances only ever switches on as h grows for the shipped
      // indexes; a distance-less round after a geometric jump cannot be
      // ranked.
      return Status::IndexError(
          name() + " dropped distances after a geometric kNN radius jump");
    } else {
      for (TupleId id : resp.ids) {
        if (seen.insert(id).second) {
          found.emplace_back(id, static_cast<uint32_t>(h));
        }
      }
      if (found.size() >= target || h >= max_radius) break;
    }

    prior_results = resp.ids.size();
    if (resp.has_distances) {
      // Distances make large jumps free of ranking error: grow
      // geometrically (0, 1, 3, 7, ...) for O(log L) rounds total.
      const std::size_t next = std::min(max_radius, 2 * h + 1);
      if (next > h + 1) first_seen_valid = false;
      h = next;
    } else {
      ++h;
    }
  }

  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  if (found.size() > k) found.resize(k);
  return Status::OK();
}

}  // namespace hamming
