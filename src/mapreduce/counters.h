// Thread-safe job counters, Hadoop-style.
//
// The counters are the measurement instrument for Figure 7: every record
// emitted by a mapper is serialized and its bytes charged to
// kShuffleBytes, and every distributed-cache broadcast charges its
// payload once per node, so "shuffle cost (GB)" is measured from the same
// quantities a real Hadoop job would ship over the network.
//
// Two layers keep the instrument off the hot path. The well-known names
// are interned to dense CounterId slots backed by a plain array, and each
// map/reduce task accumulates into an unsynchronized LocalCounters that
// the job runner merges into the shared Counters once per task — one lock
// acquisition per task instead of one per record, so counting a record
// costs an array increment and no cache-line ping-pong between workers.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/sync.h"

namespace hamming::mr {

/// \brief Well-known counter names.
inline constexpr const char* kMapInputRecords = "MAP_INPUT_RECORDS";
inline constexpr const char* kMapOutputRecords = "MAP_OUTPUT_RECORDS";
inline constexpr const char* kShuffleBytes = "SHUFFLE_BYTES";
inline constexpr const char* kReduceInputGroups = "REDUCE_INPUT_GROUPS";
inline constexpr const char* kReduceOutputRecords = "REDUCE_OUTPUT_RECORDS";
inline constexpr const char* kBroadcastBytes = "BROADCAST_BYTES";
// Physical external-shuffle counters (mapreduce/shuffle.h). Unlike the
// logical counters above, these vary with ExecutionOptions::
// shuffle_memory_bytes: an unlimited budget never spills, a tiny one
// spills often — but they stay byte-identical between a clean run and a
// faulty run at the same budget, because only winning attempts charge.
inline constexpr const char* kShuffleSpills = "SHUFFLE_SPILLS";
inline constexpr const char* kShuffleSpilledBytes = "SHUFFLE_SPILLED_BYTES";
inline constexpr const char* kShuffleMergeFanIn = "SHUFFLE_MERGE_FAN_IN";
inline constexpr const char* kCombineInputRecords = "COMBINE_INPUT_RECORDS";
inline constexpr const char* kCombineOutputRecords = "COMBINE_OUTPUT_RECORDS";

/// \brief Dense slots for the well-known counters; hot-path Add calls
/// index an array instead of probing a string map.
enum class CounterId : uint8_t {
  kMapInputRecords = 0,
  kMapOutputRecords,
  kShuffleBytes,
  kReduceInputGroups,
  kReduceOutputRecords,
  kBroadcastBytes,
  kShuffleSpills,
  kShuffleSpilledBytes,
  kShuffleMergeFanIn,
  kCombineInputRecords,
  kCombineOutputRecords,
};

inline constexpr std::size_t kNumCounterIds = 11;

/// \brief Slot of a well-known name, or -1 for arbitrary names.
int InternCounterId(std::string_view name);

/// \brief Unsynchronized counter bag owned by a single task.
///
/// A map or reduce task counts into its LocalCounters with no locking
/// (the task is the only writer), then the runner folds the whole bag
/// into the job's shared Counters with one MergeLocal call.
class LocalCounters {
 public:
  void Add(CounterId id, int64_t delta) {
    const auto i = static_cast<std::size_t>(id);
    values_[i] += delta;
    touched_[i] = true;
  }

  /// \brief Named add; well-known names intern to their array slot.
  void Add(const std::string& name, int64_t delta) {
    int id = InternCounterId(name);
    if (id >= 0) {
      Add(static_cast<CounterId>(id), delta);
    } else {
      other_[name] += delta;
    }
  }

  int64_t Get(CounterId id) const {
    return values_[static_cast<std::size_t>(id)];
  }

  void Clear() {
    values_.fill(0);
    touched_.fill(false);
    other_.clear();
  }

 private:
  friend class Counters;
  std::array<int64_t, kNumCounterIds> values_{};
  // A counter "exists" once Added (even with delta 0), matching the
  // insert-on-first-touch semantics of a string map.
  std::array<bool, kNumCounterIds> touched_{};
  std::map<std::string, int64_t> other_;
};

/// \brief A named bag of monotonically increasing counters (shared,
/// mutex-protected; see LocalCounters for the per-task fast path).
class Counters {
 public:
  Counters() = default;
  Counters(const Counters& other) { *this = other; }
  Counters& operator=(const Counters& other);

  /// \brief Adds `delta` to a well-known counter.
  void Add(CounterId id, int64_t delta) HAMMING_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const auto i = static_cast<std::size_t>(id);
    values_[i] += delta;
    touched_[i] = true;
  }

  /// \brief Adds `delta` to the named counter.
  void Add(const std::string& name, int64_t delta) HAMMING_EXCLUDES(mu_);

  /// \brief Current value (0 if never touched).
  int64_t Get(const std::string& name) const HAMMING_EXCLUDES(mu_);
  int64_t Get(CounterId id) const HAMMING_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return values_[static_cast<std::size_t>(id)];
  }

  /// \brief Copy of all counters.
  std::map<std::string, int64_t> Snapshot() const HAMMING_EXCLUDES(mu_);

  /// \brief Adds every counter of `other` into this.
  void Merge(const Counters& other) HAMMING_EXCLUDES(mu_);

  /// \brief Folds a task's LocalCounters in under a single lock.
  void MergeLocal(const LocalCounters& local) HAMMING_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::array<int64_t, kNumCounterIds> values_ HAMMING_GUARDED_BY(mu_){};
  std::array<bool, kNumCounterIds> touched_ HAMMING_GUARDED_BY(mu_){};
  std::map<std::string, int64_t> other_ HAMMING_GUARDED_BY(mu_);
};

}  // namespace hamming::mr
