#include "mapreduce/distributed_cache.h"

#include "mapreduce/counters.h"

namespace hamming::mr {

void DistributedCache::Broadcast(const std::vector<uint8_t>& blob,
                                 Counters* counters) const {
  if (counters != nullptr) {
    counters->Add(CounterId::kBroadcastBytes,
                  static_cast<int64_t>(blob.size() * num_nodes_));
  }
}

}  // namespace hamming::mr
