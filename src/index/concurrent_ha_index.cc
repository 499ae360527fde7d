#include "index/concurrent_ha_index.h"

#include <algorithm>

#include "observability/request_trace.h"

namespace hamming {

// ---------------------------------------------------------------------------
// Snapshot: immutable reads over (base, delta, tombstones)
// ---------------------------------------------------------------------------

Status ConcurrentHAIndex::Snapshot::SearchBatch(
    std::span<const QueryRequest> requests,
    std::span<QueryResponse> responses) const {
  HAMMING_RETURN_NOT_OK(base_->SearchBatch(requests, responses));
  std::vector<kernels::SlotDistance> hits;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    if (!resp.status.ok()) continue;
    // Deletes against the frozen base are tombstones; filter them out
    // before appending delta matches so a reinserted id cannot appear
    // twice (its tombstone hides the base copy, the delta carries the
    // live one).
    if (!tombstones_.empty()) {
      std::size_t kept = 0;
      for (std::size_t j = 0; j < resp.ids.size(); ++j) {
        if (tombstones_.count(resp.ids[j]) != 0) continue;
        resp.ids[kept] = resp.ids[j];
        resp.distances[kept] = resp.distances[j];
        ++kept;
      }
      resp.ids.resize(kept);
      resp.distances.resize(kept);
    }
    kernels::VerticalScanStats planes;
    Status st = inserts_.WithinDistance(requests[i].code, requests[i].h,
                                        &hits, &planes);
    if (!st.ok()) {
      resp.ids.clear();
      resp.distances.clear();
      resp.has_distances = false;
      resp.status = std::move(st);
      continue;
    }
    for (const auto& hit : hits) {
      resp.ids.push_back(insert_ids_[hit.slot]);
      resp.distances.push_back(hit.dist);
    }
    obs::QueryStats& stats = resp.stats;
    ++stats.kernel_batch_calls;
    stats.candidates_generated += insert_ids_.size();
    stats.exact_distance_computations += insert_ids_.size();
    stats.results += resp.ids.size();
    stats.planes_scanned += planes.planes_scanned;
    stats.blocks_pruned += planes.blocks_pruned;
    stats.blocks_skipped += planes.blocks_skipped;
  }
  return Status::OK();
}

MemoryBreakdown ConcurrentHAIndex::Snapshot::Memory() const {
  MemoryBreakdown mb = base_->Memory();
  // The delta payload is leaf-level (its ids and every layout of its
  // codes); tombstones are internal structure.
  mb.leaf_bytes +=
      insert_ids_.size() * sizeof(TupleId) + inserts_.BufferBytes();
  mb.internal_bytes += tombstones_.size() * sizeof(TupleId);
  return mb;
}

std::vector<std::pair<TupleId, BinaryCode>>
ConcurrentHAIndex::Snapshot::ExportTuples() const {
  std::vector<std::pair<TupleId, BinaryCode>> out = base_->ExportTuples();
  if (!tombstones_.empty()) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (tombstones_.count(out[i].first) == 0) {
        out[kept++] = std::move(out[i]);
      }
    }
    out.resize(kept);
  }
  for (std::size_t i = 0; i < insert_ids_.size(); ++i) {
    out.emplace_back(insert_ids_[i], inserts_.Get(i));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ConcurrentHAIndex: serialized mutators, publish-and-pin readers
// ---------------------------------------------------------------------------

ConcurrentHAIndex::ConcurrentHAIndex(ConcurrentHAIndexOptions opts)
    : opts_(std::move(opts)), publisher_(opts_.metrics) {
  // Snapshot search filters tombstones by id, so the base must keep its
  // per-leaf tuple-id tables (leafless Option B mode cannot be wrapped).
  opts_.base.store_tuple_ids = true;
  if (opts_.publish_threshold == 0) opts_.publish_threshold = 1;
  if (opts_.rebuild_threshold == 0) opts_.rebuild_threshold = 1;
  MutexLock lock(&write_mu_);
  base_ = std::make_shared<const DynamicHAIndex>(opts_.base);
  // Publish an empty epoch 0 so Pin() never observes null.
  Status st = PublishLocked();
  (void)st;  // publishing an empty delta cannot fail
}

Status ConcurrentHAIndex::Build(const std::vector<BinaryCode>& codes) {
  std::vector<TupleId> ids(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ids[i] = static_cast<TupleId>(i);
  }
  return BuildWithIds(ids, codes);
}

Status ConcurrentHAIndex::BuildWithIds(const std::vector<TupleId>& ids,
                                       const std::vector<BinaryCode>& codes) {
  if (ids.size() != codes.size()) {
    return Status::InvalidArgument("ids/codes size mismatch");
  }
  MutexLock lock(&write_mu_);
  std::unordered_map<TupleId, BinaryCode> live;
  live.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!live.emplace(ids[i], codes[i]).second) {
      return Status::InvalidArgument("duplicate tuple id in Build");
    }
  }
  auto base = std::make_shared<DynamicHAIndex>(opts_.base);
  HAMMING_RETURN_NOT_OK(base->BuildWithIds(ids, codes));
  base_ = std::move(base);
  live_ = std::move(live);
  delta_ids_.clear();
  delta_codes_.Reset(codes.empty() ? 0 : codes.front().size());
  tombstones_.clear();
  pending_ = 0;
  return PublishLocked();
}

Status ConcurrentHAIndex::Insert(TupleId id, const BinaryCode& code) {
  MutexLock lock(&write_mu_);
  HAMMING_RETURN_NOT_OK(InsertLocked(id, code));
  return CommitMutationLocked();
}

Status ConcurrentHAIndex::Delete(TupleId id, const BinaryCode& code) {
  MutexLock lock(&write_mu_);
  HAMMING_RETURN_NOT_OK(DeleteLocked(id, code));
  return CommitMutationLocked();
}

Status ConcurrentHAIndex::InsertLocked(TupleId id, const BinaryCode& code) {
  if (live_.count(id) != 0) {
    return Status::InvalidArgument("duplicate tuple id in Insert");
  }
  // The delta set refuses a code of the wrong width before any state
  // changes. If the id was deleted from the base earlier its tombstone
  // stays: it keeps hiding the base copy while the delta carries the
  // new one.
  HAMMING_RETURN_NOT_OK(delta_codes_.Append(code));
  delta_ids_.push_back(id);
  live_.emplace(id, code);
  return Status::OK();
}

Status ConcurrentHAIndex::DeleteLocked(TupleId id, const BinaryCode& code) {
  auto it = live_.find(id);
  if (it == live_.end() || !(it->second == code)) {
    return Status::KeyError("tuple not found in CHA index");
  }
  live_.erase(it);
  // A delta-resident insert is simply dropped; only base-resident
  // tuples need a tombstone.
  auto di = std::find(delta_ids_.begin(), delta_ids_.end(), id);
  if (di != delta_ids_.end()) {
    delta_codes_.SwapRemove(static_cast<std::size_t>(di - delta_ids_.begin()));
    *di = delta_ids_.back();
    delta_ids_.pop_back();
  } else {
    tombstones_.insert(id);
  }
  return Status::OK();
}

Status ConcurrentHAIndex::CommitMutationLocked() {
  if (delta_ids_.size() + tombstones_.size() >= opts_.rebuild_threshold) {
    HAMMING_RETURN_NOT_OK(RebuildBaseLocked());
    pending_ = 0;
    return PublishLocked();
  }
  if (++pending_ >= opts_.publish_threshold) {
    pending_ = 0;
    return PublishLocked();
  }
  return Status::OK();
}

Status ConcurrentHAIndex::RebuildBaseLocked() {
  std::vector<TupleId> ids;
  std::vector<BinaryCode> codes;
  ids.reserve(live_.size());
  codes.reserve(live_.size());
  for (const auto& [id, code] : live_) {
    ids.push_back(id);
    codes.push_back(code);
  }
  // Readers keep serving the old snapshot (it owns a strong reference
  // to the old base) while this H-Build runs.
  auto base = std::make_shared<DynamicHAIndex>(opts_.base);
  HAMMING_RETURN_NOT_OK(base->BuildWithIds(ids, codes));
  base_ = std::move(base);
  delta_ids_.clear();
  delta_codes_.Reset(delta_codes_.bits());
  tombstones_.clear();
  ++rebuilds_;
  return Status::OK();
}

Status ConcurrentHAIndex::PublishLocked() {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->base_ = base_;
  snap->insert_ids_ = delta_ids_;
  snap->inserts_ = delta_codes_;
  snap->tombstones_ = tombstones_;
  snap->size_ = live_.size();
  snap->epoch_ = next_epoch_++;
  const uint64_t epoch = snap->epoch_;
  publisher_.Publish(std::move(snap), epoch);
  return Status::OK();
}

Status ConcurrentHAIndex::SearchBatch(std::span<const QueryRequest> requests,
                                      std::span<QueryResponse> responses) const {
  // The pin itself is the interesting serving span: it is where a batch
  // binds to one published epoch (and where reclamation pressure would
  // show up as latency). Recorded only when the serving layer installed
  // a span sink for this thread.
  obs::ScopedRequestSpan pin_span(obs::RequestPhase::kEpochPin);
  SnapshotPtr snap = Pin();
  pin_span.SetDetail(snap->epoch());
  pin_span.End();
  return snap->SearchBatch(requests, responses);
}

Status ConcurrentHAIndex::KnnBatch(std::span<const QueryRequest> requests,
                                   std::span<QueryResponse> responses) const {
  obs::ScopedRequestSpan pin_span(obs::RequestPhase::kEpochPin);
  SnapshotPtr snap = Pin();
  pin_span.SetDetail(snap->epoch());
  pin_span.End();
  return snap->KnnBatch(requests, responses);
}

std::size_t ConcurrentHAIndex::size() const { return Pin()->size(); }

MemoryBreakdown ConcurrentHAIndex::Memory() const { return Pin()->Memory(); }

Status ConcurrentHAIndex::Publish() {
  MutexLock lock(&write_mu_);
  pending_ = 0;
  return PublishLocked();
}

uint64_t ConcurrentHAIndex::rebuilds() const {
  MutexLock lock(&write_mu_);
  return rebuilds_;
}

}  // namespace hamming
