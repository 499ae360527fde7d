#include "kernels/code_set.h"

#include <bit>
#include <string>
#include <utility>

namespace hamming::kernels {

Result<CodeSet> CodeSet::FromCodes(const std::vector<BinaryCode>& codes,
                                   std::span<const uint32_t> slots) {
  CodeSet set;
  HAMMING_ASSIGN_OR_RETURN(set.words_, CodeStore::FromCodes(codes, slots));
  if (set.size() >= kVerticalMinCodes) {
    set.planes_.emplace().AssignTransposed(set.words_);
  }
  return set;
}

void CodeSet::Reset(std::size_t bits) {
  words_.Reset(bits);
  planes_.reset();
}

Status CodeSet::Append(const BinaryCode& code) {
  HAMMING_RETURN_NOT_OK(words_.Append(code));
  if (planes_) return planes_->Append(code);
  // First time at the floor: transpose the backlog once, then keep the
  // plane copy in step code by code.
  if (size() == kVerticalMinCodes) planes_.emplace().AssignTransposed(words_);
  return Status::OK();
}

void CodeSet::SwapRemove(std::size_t i) {
  words_.SwapRemove(i);
  if (planes_) planes_->SwapRemove(i);
}

Status CodeSet::CheckWidth(const BinaryCode& query) const {
  // A set reset to width 0 has no width until its first Append.
  if (query.size() == bits() || (bits() == 0 && empty())) return Status::OK();
  return Status::InvalidArgument(
      "query length mismatch: " + std::to_string(query.size()) +
      "-bit query against " + std::to_string(bits()) + "-bit codes");
}

std::vector<std::size_t> CodeSet::Admit(const BinaryCode* const* queries,
                                        std::size_t nq,
                                        std::vector<SetAnswer>* out) const {
  out->assign(nq, SetAnswer{});
  std::vector<std::size_t> admitted;
  admitted.reserve(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    (*out)[q].status = CheckWidth(*queries[q]);
    if ((*out)[q].status.ok()) admitted.push_back(q);
  }
  return admitted;
}

bool CodeSet::ScanPlanes(std::size_t h) const {
  // ChooseLayout never picks the planes below kVerticalMinCodes codes,
  // and from there on the copy exists.
  return planes_ &&
         ChooseLayout(bits(), h, size()) == KernelLayout::kVertical;
}

void CodeSet::AppendDistances(const BinaryCode& query,
                              const std::vector<uint32_t>& slots,
                              std::vector<SlotDistance>* hits) const {
  // The plane scan proves d <= h without keeping d: recount each hit
  // from the word lanes (a few words per hit, on selective radii only).
  const uint64_t* q = query.words().data();
  hits->reserve(hits->size() + slots.size());
  for (uint32_t slot : slots) {
    uint32_t d = 0;
    for (std::size_t w = 0; w < words_.words(); ++w) {
      d += static_cast<uint32_t>(std::popcount(words_.Lane(w)[slot] ^ q[w]));
    }
    hits->push_back({slot, d});
  }
}

Status CodeSet::WithinDistance(const BinaryCode& query, std::size_t h,
                               std::vector<SlotDistance>* hits,
                               VerticalScanStats* planes) const {
  hits->clear();
  HAMMING_RETURN_NOT_OK(CheckWidth(query));
  if (empty()) return Status::OK();  // the common empty insert buffer
  if (ScanPlanes(h)) {
    std::vector<uint32_t> slots;
    BatchWithinDistance(query, *planes_, h, &slots, planes);
    AppendDistances(query, slots, hits);
    return Status::OK();
  }
  const BinaryCode* q = &query;
  std::vector<std::vector<SlotDistance>> tile_hits;
  kernels::MultiWithinDistance(words_, &q, &h, 1, &tile_hits);
  *hits = std::move(tile_hits[0]);
  return Status::OK();
}

void CodeSet::MultiWithinDistance(const BinaryCode* const* queries,
                                  const std::size_t* radii, std::size_t nq,
                                  std::vector<SetAnswer>* out) const {
  std::vector<std::size_t> planed;
  std::vector<std::size_t> shared;
  std::vector<const BinaryCode*> shared_queries;
  std::vector<std::size_t> shared_radii;
  for (std::size_t q : Admit(queries, nq, out)) {
    if (ScanPlanes(radii[q])) {
      planed.push_back(q);
    } else {
      shared.push_back(q);
      shared_queries.push_back(queries[q]);
      shared_radii.push_back(radii[q]);
    }
  }
  if (!planed.empty()) {
    // One block-major pass over the planes for every plane-routed query.
    std::vector<std::vector<uint32_t>> slots(planed.size());
    std::vector<VerticalQuery> scans;
    scans.reserve(planed.size());
    for (std::size_t g = 0; g < planed.size(); ++g) {
      const std::size_t q = planed[g];
      scans.push_back({queries[q], radii[q], &slots[g], &(*out)[q].planes});
    }
    kernels::MultiWithinDistance(*planes_, scans.data(), scans.size());
    for (std::size_t g = 0; g < planed.size(); ++g) {
      AppendDistances(*queries[planed[g]], slots[g], &(*out)[planed[g]].hits);
    }
  }
  if (shared.empty()) return;
  // The rest share one tile-major pass over the word lanes.
  std::vector<std::vector<SlotDistance>> hits;
  kernels::MultiWithinDistance(words_, shared_queries.data(),
                               shared_radii.data(), shared.size(), &hits);
  for (std::size_t g = 0; g < shared.size(); ++g) {
    (*out)[shared[g]].hits = std::move(hits[g]);
  }
}

void CodeSet::MultiKnn(const BinaryCode* const* queries, const std::size_t* ks,
                       std::size_t nq, std::vector<SetAnswer>* out) const {
  const std::vector<std::size_t> admitted = Admit(queries, nq, out);
  std::vector<const BinaryCode*> admitted_queries;
  std::vector<std::size_t> admitted_ks;
  for (std::size_t q : admitted) {
    admitted_queries.push_back(queries[q]);
    admitted_ks.push_back(ks[q]);
  }
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> nearest;
  kernels::MultiKnn(words_, admitted_queries.data(), admitted_ks.data(),
                    admitted.size(), &nearest);
  for (std::size_t g = 0; g < admitted.size(); ++g) {
    auto& hits = (*out)[admitted[g]].hits;
    hits.reserve(nearest[g].size());
    for (const auto& [slot, dist] : nearest[g]) hits.push_back({slot, dist});
  }
}

}  // namespace hamming::kernels
