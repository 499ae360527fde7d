#include "index/linear_scan.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace hamming {

namespace {

// Every answer reads all n stored codes; the plane counters stay zero
// when the word lanes answered.
void RecordScan(std::size_t n, std::size_t results,
                const kernels::VerticalScanStats& planes,
                obs::QueryStats* stats) {
  ++stats->kernel_batch_calls;
  stats->candidates_generated += n;
  stats->exact_distance_computations += n;
  stats->results += results;
  stats->planes_scanned += planes.planes_scanned;
  stats->blocks_pruned += planes.blocks_pruned;
  stats->blocks_skipped += planes.blocks_skipped;
}

// slots[i] = where code i goes in prefix order: a stable counting sort
// on the leading `key_bits` code bits. The key widens with n, about two
// bits past one key per 64-lane group, so a group's codes share most of
// their key; it is capped at the code width and at 16 bits, which keeps
// the histogram small.
std::vector<uint32_t> PrefixSlots(const std::vector<BinaryCode>& codes) {
  const std::size_t n = codes.size();
  if (n == 0) return {};
  const std::size_t key_bits = std::min<std::size_t>(
      {codes[0].size(), 16,
       static_cast<std::size_t>(std::bit_width(n / 64)) + 2});
  // One pass over the codes extracts the keys (MSB-first, code bits
  // 0..key_bits-1 are the top bits of word 0) into `slots`; a second,
  // over the keys alone, turns each into its slot.
  std::vector<uint32_t> slots(n, 0);
  std::vector<uint32_t> next(std::size_t{1} << key_bits, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (key_bits > 0) {
      slots[i] =
          static_cast<uint32_t>(codes[i].words()[0] >> (64 - key_bits));
    }
    ++next[slots[i]];
  }
  uint32_t start = 0;
  for (uint32_t& count : next) start += std::exchange(count, start);
  for (uint32_t& slot : slots) slot = next[slot]++;
  return slots;
}

}  // namespace

Status LinearScanIndex::Build(const std::vector<BinaryCode>& codes) {
  const std::vector<uint32_t> slots = PrefixSlots(codes);
  HAMMING_ASSIGN_OR_RETURN(codes_, kernels::CodeSet::FromCodes(codes, slots));
  ids_.resize(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ids_[slots[i]] = static_cast<TupleId>(i);
  }
  return Status::OK();
}

Status LinearScanIndex::SearchBatch(std::span<const QueryRequest> requests,
                                    std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
  std::vector<const BinaryCode*> queries;
  std::vector<std::size_t> radii;
  queries.reserve(requests.size());
  radii.reserve(requests.size());
  for (const QueryRequest& req : requests) {
    queries.push_back(&req.code);
    radii.push_back(req.h);
  }
  std::vector<kernels::SetAnswer> answers;
  codes_.MultiWithinDistance(queries.data(), radii.data(), requests.size(),
                             &answers);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.Clear();
    const kernels::SetAnswer& answer = answers[i];
    if (!answer.status.ok()) {
      resp.status = answer.status;
      continue;
    }
    resp.ids.reserve(answer.hits.size());
    resp.distances.reserve(answer.hits.size());
    for (const auto& hit : answer.hits) {
      resp.ids.push_back(ids_[hit.slot]);
      resp.distances.push_back(hit.dist);
    }
    resp.has_distances = true;
    RecordScan(ids_.size(), resp.ids.size(), answer.planes, &resp.stats);
  }
  return Status::OK();
}

Status LinearScanIndex::KnnBatch(std::span<const QueryRequest> requests,
                                 std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(CheckBatchSpans(requests, responses));
  std::vector<const BinaryCode*> queries;
  std::vector<std::size_t> ks;
  queries.reserve(requests.size());
  ks.reserve(requests.size());
  for (const QueryRequest& req : requests) {
    queries.push_back(&req.code);
    ks.push_back(req.k);
  }
  std::vector<kernels::SetAnswer> answers;
  codes_.MultiKnn(queries.data(), ks.data(), requests.size(), &answers);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.Clear();
    const kernels::SetAnswer& answer = answers[i];
    if (!answer.status.ok()) {
      resp.status = answer.status;
      continue;
    }
    resp.neighbors.reserve(answer.hits.size());
    for (const auto& hit : answer.hits) {
      resp.neighbors.emplace_back(ids_[hit.slot], hit.dist);
    }
    RecordScan(ids_.size(), resp.neighbors.size(), answer.planes,
               &resp.stats);
  }
  return Status::OK();
}

Status LinearScanIndex::Insert(TupleId id, const BinaryCode& code) {
  HAMMING_RETURN_NOT_OK(codes_.Append(code));
  ids_.push_back(id);
  return Status::OK();
}

Status LinearScanIndex::Delete(TupleId id, const BinaryCode& code) {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id && codes_.Matches(i, code)) {
      codes_.SwapRemove(i);
      ids_[i] = ids_.back();
      ids_.pop_back();
      return Status::OK();
    }
  }
  return Status::KeyError("tuple not found in linear scan index");
}

MemoryBreakdown LinearScanIndex::Memory() const {
  MemoryBreakdown mb;
  mb.leaf_bytes += codes_.PackedBytes();
  // The bit-plane copy, once present, doubles the code bytes held;
  // account it and its common-bit summaries as index overhead rather
  // than leaf payload.
  if (const auto* planes = codes_.planes(); planes != nullptr) {
    mb.internal_bytes += codes_.PackedBytes() + planes->SummaryBytes();
  }
  mb.leaf_bytes += ids_.size() * sizeof(TupleId);
  return mb;
}

}  // namespace hamming
