#include "join/centralized_join.h"

#include <algorithm>

#include "kernels/code_set.h"

namespace hamming {

std::vector<JoinPair> NestedLoopsJoin(const std::vector<BinaryCode>& r_codes,
                                      const std::vector<BinaryCode>& s_codes,
                                      std::size_t h) {
  std::vector<JoinPair> out;
  if (r_codes.empty() || s_codes.empty()) return out;
  // Pack the inner side once; each outer tuple then verifies the whole
  // inner relation with one CodeSet range call, which skips outer codes
  // of another width. Mixed-length inputs (which can't share a set) fall
  // back to the scalar pairwise loop.
  auto set = kernels::CodeSet::FromCodes(s_codes);
  if (set.ok()) {
    std::vector<kernels::SlotDistance> hits;
    for (std::size_t i = 0; i < r_codes.size(); ++i) {
      if (!set->WithinDistance(r_codes[i], h, &hits).ok()) continue;
      for (const auto& hit : hits) {
        out.push_back({static_cast<TupleId>(i), hit.slot});
      }
    }
    return out;
  }
  for (std::size_t i = 0; i < r_codes.size(); ++i) {
    for (std::size_t j = 0; j < s_codes.size(); ++j) {
      if (r_codes[i].WithinDistance(s_codes[j], h)) {
        out.push_back({static_cast<TupleId>(i), static_cast<TupleId>(j)});
      }
    }
  }
  return out;
}

Result<std::vector<JoinPair>> IndexProbeJoin(
    HammingIndex* index, const std::vector<BinaryCode>& r_codes,
    const std::vector<BinaryCode>& s_codes, std::size_t h) {
  HAMMING_RETURN_NOT_OK(index->Build(r_codes));
  std::vector<JoinPair> out;
  // Probe in coalesced batches: one SearchBatch streams the R side once
  // for every query in the chunk instead of once per S tuple.
  constexpr std::size_t kProbeBatch = 64;
  std::vector<QueryRequest> reqs;
  std::vector<QueryResponse> resps;
  for (std::size_t begin = 0; begin < s_codes.size(); begin += kProbeBatch) {
    const std::size_t count = std::min(kProbeBatch, s_codes.size() - begin);
    reqs.clear();
    reqs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      reqs.push_back(QueryRequest::Range(s_codes[begin + i], h));
    }
    resps.resize(count);
    HAMMING_RETURN_NOT_OK(index->SearchBatch(reqs, resps));
    for (std::size_t i = 0; i < count; ++i) {
      HAMMING_RETURN_NOT_OK(resps[i].status);
      for (TupleId r : resps[i].ids) {
        out.push_back({r, static_cast<TupleId>(begin + i)});
      }
    }
  }
  return out;
}

void NormalizePairs(std::vector<JoinPair>* pairs) {
  std::sort(pairs->begin(), pairs->end());
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

}  // namespace hamming
