// ConcurrentHAIndex: reads-during-writes over the Dynamic HA-Index.
//
// DynamicHAIndex (the paper's Sections 4.4-4.6 structure) is
// single-threaded mutate-then-query; racing an Insert/Delete stream
// against readers is undefined behavior. This wrapper makes the dynamic
// family safe for concurrent readers under an ongoing mutation stream
// with an epoch/snapshot scheme (src/index/epoch.h):
//
//   * Mutators serialize on write_mu_ and build into a private delta —
//     the same shape as DynamicHA's own insert buffer: the buffered
//     insert ids plus one kernels::CodeSet of their codes, plus a
//     tombstone id set for deletes against the frozen base.
//   * Publish() freezes (base, delta, tombstones) into an immutable
//     Snapshot and swaps it in through the EpochPublisher. By default
//     every mutation publishes (publish_threshold = 1), so readers are
//     never more than one operation stale; batching mutations between
//     publishes trades staleness for churn throughput.
//   * Readers Pin() the current snapshot — one shared_ptr copy — and
//     run lock-free against immutable data. SearchBatch/KnnBatch pin
//     ONCE for the whole batch, so every response in a batch (and every
//     radius round of a kNN expansion) is consistent with exactly one
//     published epoch. The serving layer's QueryEngine issues one batch
//     call per coalesced batch, which makes "pin once per batch, not
//     per request" hold end to end with no serving-side changes.
//   * When the delta outgrows rebuild_threshold, the mutator rebuilds a
//     fresh base DynamicHAIndex from the live corpus (an H-Build over
//     Gray-ordered codes) while readers keep serving the old snapshot,
//     then publishes the compacted state.
//
// Acquisition order (write_mu_ -> publisher mutex -> metrics) is
// declared in tools/analyze/lock_order.toml ("index_write" -> "epoch"
// -> "metrics") and machine-verified by the analyze stage. Readers take
// only the publisher mutex, and only for one shared_ptr copy.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "index/dynamic_ha_index.h"
#include "index/epoch.h"
#include "index/hamming_index.h"
#include "kernels/code_set.h"

namespace hamming {

/// \brief Tuning knobs of the epoch/snapshot wrapper.
struct ConcurrentHAIndexOptions {
  /// Options of the underlying DynamicHAIndex base. store_tuple_ids is
  /// forced on (snapshot search needs leafful mode).
  DynamicHAIndexOptions base;
  /// Mutations buffered before an automatic publish; 1 (default) makes
  /// every Insert/Delete immediately visible to new pins.
  std::size_t publish_threshold = 1;
  /// Delta size (pending inserts + tombstones) that triggers a base
  /// rebuild + compacting publish.
  std::size_t rebuild_threshold = 4096;
  /// Registry for the index.epoch_* metrics (null = no recording).
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief Concurrent-reader dynamic HA index (epoch snapshots).
///
/// Thread contract: any number of concurrent readers (const entry
/// points) against any number of mutators (Insert/Delete/Build), with
/// mutators serialized internally. Readers never block mutators beyond
/// the publisher's pointer swap and vice versa.
class ConcurrentHAIndex final : public HammingIndex {
 public:
  /// \brief One published epoch: an immutable (base, delta, tombstones)
  /// triple that is itself a complete HammingIndex for reads.
  ///
  /// A range query = base H-Search minus tombstoned ids, plus a
  /// batched-kernel scan of the delta inserts — exactly the base
  /// DynamicHA plan with the delta standing in for its (frozen,
  /// empty-at-build) insert buffer. Mutating entry points fail with
  /// NotImplemented.
  class Snapshot final : public HammingIndex {
   public:
    std::string name() const override { return "CHA-Snapshot"; }

    Status Build(const std::vector<BinaryCode>&) override {
      return Status::NotImplemented(
          "snapshot is immutable; mutate the owning ConcurrentHAIndex");
    }
    Status Insert(TupleId, const BinaryCode&) override {
      return Status::NotImplemented(
          "snapshot is immutable; mutate the owning ConcurrentHAIndex");
    }
    Status Delete(TupleId, const BinaryCode&) override {
      return Status::NotImplemented(
          "snapshot is immutable; mutate the owning ConcurrentHAIndex");
    }

    /// \brief The base answers the whole batch; each response then
    /// drops its tombstoned ids and gains its delta matches. Every
    /// response carries exact per-match distances (the base H-Search
    /// knows them at the leaves; the delta scan computes them), so the
    /// inherited KnnBatch expands geometrically — entirely within this
    /// one epoch.
    Status SearchBatch(std::span<const QueryRequest> requests,
                       std::span<QueryResponse> responses) const override;

    std::size_t size() const override { return size_; }
    MemoryBreakdown Memory() const override;

    /// \brief The epoch number this snapshot was published under.
    uint64_t epoch() const { return epoch_; }
    std::size_t delta_inserts() const { return insert_ids_.size(); }
    std::size_t delta_tombstones() const { return tombstones_.size(); }

    /// \brief The frozen corpus as (id, code) pairs (order unspecified).
    /// Test hook: brute force over ExportTuples() is the ground truth a
    /// pinned snapshot's results are compared against during churn.
    std::vector<std::pair<TupleId, BinaryCode>> ExportTuples() const;

   private:
    friend class ConcurrentHAIndex;
    Snapshot() = default;

    std::shared_ptr<const DynamicHAIndex> base_;
    // Delta insert i is tuple insert_ids_[i] with code inserts_.Get(i).
    std::vector<TupleId> insert_ids_;
    kernels::CodeSet inserts_;
    std::unordered_set<TupleId> tombstones_;
    std::size_t size_ = 0;
    uint64_t epoch_ = 0;
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  explicit ConcurrentHAIndex(ConcurrentHAIndexOptions opts = {});

  std::string name() const override { return "CHA-Index"; }

  /// \brief Bulk load; replaces contents and publishes immediately.
  Status Build(const std::vector<BinaryCode>& codes) override;
  /// \brief Bulk load with caller-supplied ids (must be unique).
  Status BuildWithIds(const std::vector<TupleId>& ids,
                      const std::vector<BinaryCode>& codes);

  /// \brief Inserts one (id, code); ids must be unique among live
  /// tuples (InvalidArgument otherwise — the epoch scheme needs id
  /// identity for tombstones to be unambiguous).
  Status Insert(TupleId id, const BinaryCode& code) override;
  /// \brief Deletes one (id, code); KeyError if absent or mismatched.
  Status Delete(TupleId id, const BinaryCode& code) override;

  // Readers: each entry point pins the current snapshot exactly once
  // and delegates, so a batch (or a whole kNN radius expansion) sees
  // one epoch.
  Status SearchBatch(std::span<const QueryRequest> requests,
                     std::span<QueryResponse> responses) const override;
  Status KnnBatch(std::span<const QueryRequest> requests,
                  std::span<QueryResponse> responses) const override;

  /// \brief Size / memory of the *published* snapshot (what readers
  /// see), not of unpublished pending mutations.
  std::size_t size() const override;
  MemoryBreakdown Memory() const override;

  /// \brief Pins the current snapshot for caller-controlled lifetime
  /// (the test suite compares live results against a pinned epoch).
  SnapshotPtr Pin() const { return publisher_.Pin(); }

  /// \brief Publishes pending mutations now (no-op when none are
  /// pending and a snapshot exists). Only needed when
  /// publish_threshold > 1.
  Status Publish();

  /// \brief Latest published epoch number.
  uint64_t epoch() const { return publisher_.epoch(); }
  /// \brief Retired snapshots awaiting reader quiescence.
  std::size_t retired_snapshots() const { return publisher_.retired_count(); }
  /// \brief Base rebuilds performed (compactions).
  uint64_t rebuilds() const;

  const ConcurrentHAIndexOptions& options() const { return opts_; }

 private:
  Status InsertLocked(TupleId id, const BinaryCode& code)
      HAMMING_REQUIRES(write_mu_);
  Status DeleteLocked(TupleId id, const BinaryCode& code)
      HAMMING_REQUIRES(write_mu_);
  /// Commits one applied mutation: counts it, rebuilds when the delta
  /// is oversized, publishes when the threshold is reached.
  Status CommitMutationLocked() HAMMING_REQUIRES(write_mu_);
  Status RebuildBaseLocked() HAMMING_REQUIRES(write_mu_);
  Status PublishLocked() HAMMING_REQUIRES(write_mu_);

  ConcurrentHAIndexOptions opts_;
  // write_mu_ nests outside the publisher's mutex (taken inside
  // publisher_.Publish/Pin); see tools/analyze/lock_order.toml.
  mutable Mutex write_mu_;
  // Mutator-private working state. live_ is the authoritative corpus
  // (id -> code): O(1) duplicate/missing checks and the rebuild source.
  std::shared_ptr<const DynamicHAIndex> base_ HAMMING_GUARDED_BY(write_mu_);
  std::unordered_map<TupleId, BinaryCode> live_ HAMMING_GUARDED_BY(write_mu_);
  // Pending insert i is tuple delta_ids_[i] with code delta_codes_.Get(i);
  // the set also fixes the index's code width.
  std::vector<TupleId> delta_ids_ HAMMING_GUARDED_BY(write_mu_);
  kernels::CodeSet delta_codes_ HAMMING_GUARDED_BY(write_mu_);
  std::unordered_set<TupleId> tombstones_ HAMMING_GUARDED_BY(write_mu_);
  std::size_t pending_ HAMMING_GUARDED_BY(write_mu_) = 0;
  uint64_t next_epoch_ HAMMING_GUARDED_BY(write_mu_) = 0;
  uint64_t rebuilds_ HAMMING_GUARDED_BY(write_mu_) = 0;
  EpochPublisher<Snapshot> publisher_;
};

}  // namespace hamming
