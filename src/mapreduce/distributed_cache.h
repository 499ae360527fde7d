// Distributed cache: the side-channel MapReduce jobs use to ship small
// read-only artifacts (the learned hash function, the pivot set, the
// global HA-Index) to every worker before the map phase (Section 5.2:
// "the selected pivots and the learned hash function are loaded into
// memory in each mapper via distributed cache").
#pragma once

#include <cstdint>
#include <vector>

namespace hamming::mr {

class Counters;

/// \brief The broadcast cost of read-only byte blobs shipped to all nodes.
///
/// Mappers and reducers run in-process and read the artifacts directly,
/// so only the cost is kept: broadcasting charges the blob size once per
/// node to kBroadcastBytes — the cost Hadoop pays materializing cache
/// files on every worker, which Section 5.4's analysis counts as |HA| * N.
class DistributedCache {
 public:
  explicit DistributedCache(std::size_t num_nodes) : num_nodes_(num_nodes) {}

  /// \brief Charges the broadcast cost of `blob`.
  void Broadcast(const std::vector<uint8_t>& blob, Counters* counters) const;

 private:
  std::size_t num_nodes_;
};

}  // namespace hamming::mr
