#include "knn/hamming_knn.h"

#include <algorithm>

namespace hamming {

Result<std::vector<Neighbor>> HammingKnnSearcher::Search(
    std::span<const double> query, std::size_t k) const {
  BinaryCode qcode = hash_->Hash(query);
  const std::size_t max_h = hash_->code_bits();
  std::size_t h = opts_.initial_h;
  std::vector<TupleId> candidates;
  QueryResponse resp;
  for (;;) {
    QueryRequest req = QueryRequest::Range(qcode, h);
    HAMMING_RETURN_NOT_OK(index_->SearchBatch({&req, 1}, {&resp, 1}));
    HAMMING_RETURN_NOT_OK(resp.status);
    candidates = std::move(resp.ids);
    if (candidates.size() >= k || h >= max_h) break;
    h = std::min(max_h, h + opts_.h_step);
  }
  // Rank candidates by true distance.
  std::vector<Neighbor> ranked;
  ranked.reserve(candidates.size());
  for (TupleId id : candidates) {
    ranked.push_back(
        {id, FloatMatrix::L2(data_->Row(id), query)});
  }
  std::sort(ranked.begin(), ranked.end());
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace hamming
