#include "mapreduce/counters.h"

namespace hamming::mr {

namespace {

constexpr std::array<const char*, kNumCounterIds> kCounterNames = {
    kMapInputRecords,     kMapOutputRecords,  kShuffleBytes,
    kReduceInputGroups,   kReduceOutputRecords, kBroadcastBytes,
    kShuffleSpills,       kShuffleSpilledBytes, kShuffleMergeFanIn,
    kCombineInputRecords, kCombineOutputRecords,
};

}  // namespace

int InternCounterId(std::string_view name) {
  for (std::size_t i = 0; i < kNumCounterIds; ++i) {
    if (name == kCounterNames[i]) return static_cast<int>(i);
  }
  return -1;
}

// Locks both objects in address order (the canonical deadlock-free order
// for same-class pairs). The analysis cannot see through the first/second
// aliasing, so this one function opts out of it.
Counters& Counters::operator=(const Counters& other)
    HAMMING_NO_THREAD_SAFETY_ANALYSIS {
  if (this == &other) return *this;
  Mutex* first = this < &other ? &mu_ : &other.mu_;
  Mutex* second = this < &other ? &other.mu_ : &mu_;
  MutexLock l1(first);
  MutexLock l2(second);
  values_ = other.values_;
  touched_ = other.touched_;
  other_ = other.other_;
  return *this;
}

void Counters::Add(const std::string& name, int64_t delta) {
  int id = InternCounterId(name);
  if (id >= 0) {
    Add(static_cast<CounterId>(id), delta);
    return;
  }
  MutexLock lock(&mu_);
  other_[name] += delta;
}

int64_t Counters::Get(const std::string& name) const {
  int id = InternCounterId(name);
  MutexLock lock(&mu_);
  if (id >= 0) return values_[static_cast<std::size_t>(id)];
  auto it = other_.find(name);
  return it == other_.end() ? 0 : it->second;
}

std::map<std::string, int64_t> Counters::Snapshot() const {
  MutexLock lock(&mu_);
  std::map<std::string, int64_t> out = other_;
  for (std::size_t i = 0; i < kNumCounterIds; ++i) {
    if (touched_[i]) out[kCounterNames[i]] = values_[i];
  }
  return out;
}

void Counters::Merge(const Counters& other) {
  std::array<int64_t, kNumCounterIds> values;
  std::array<bool, kNumCounterIds> touched;
  std::map<std::string, int64_t> others;
  {
    MutexLock lock(&other.mu_);
    values = other.values_;
    touched = other.touched_;
    others = other.other_;
  }
  MutexLock lock(&mu_);
  for (std::size_t i = 0; i < kNumCounterIds; ++i) {
    if (touched[i]) {
      values_[i] += values[i];
      touched_[i] = true;
    }
  }
  for (const auto& [name, v] : others) other_[name] += v;
}

void Counters::MergeLocal(const LocalCounters& local) {
  MutexLock lock(&mu_);
  for (std::size_t i = 0; i < kNumCounterIds; ++i) {
    if (local.touched_[i]) {
      values_[i] += local.values_[i];
      touched_[i] = true;
    }
  }
  for (const auto& [name, v] : local.other_) other_[name] += v;
}

}  // namespace hamming::mr
