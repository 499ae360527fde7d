#include "mrjoin/pmh.h"

#include <algorithm>

#include "common/rng.h"
#include "dataset/sampling.h"
#include "index/multi_hash_table.h"

namespace hamming::mrjoin {

Result<PmhResult> RunPmhJoin(const FloatMatrix& r_data,
                             const FloatMatrix& s_data,
                             const PmhOptions& opts, mr::Cluster* cluster) {
  if (r_data.empty() || s_data.empty()) {
    return Status::InvalidArgument("empty join input");
  }
  PmhResult result;
  mr::Counters plan_counters;

  // Train the hash on a sample (same preprocessing as MRHA so the plans
  // differ only in distribution strategy), unless one is supplied.
  std::unique_ptr<SpectralHashing> trained;
  const SpectralHashing* hash_raw = opts.pretrained.get();
  if (hash_raw == nullptr) {
    Rng rng(opts.seed);
    std::size_t sample_n = std::max<std::size_t>(
        2, static_cast<std::size_t>(opts.sample_rate *
                                    static_cast<double>(r_data.rows())));
    auto sample_ids = ReservoirSampleIndices(r_data.rows(), sample_n, &rng);
    FloatMatrix sample = r_data.GatherRows(sample_ids);
    SpectralHashingOptions hash_opts;
    hash_opts.code_bits = opts.code_bits;
    HAMMING_ASSIGN_OR_RETURN(trained,
                             SpectralHashing::Train(sample, hash_opts));
    hash_raw = trained.get();
  }

  // The mappers need the hash function; it ships via distributed cache
  // exactly as in the MRHA plan.
  {
    BufferWriter w;
    hash_raw->Serialize(&w);
    cluster->cache()->Broadcast(w.Release(), &plan_counters);
  }

  // Build the k-table Manku index over all of R and broadcast it whole:
  // every table duplicates every fingerprint, which is the O(m * k * N)
  // shipping cost the paper's Section 2 criticizes ("duplicating the hash
  // entries multiple times for the entire datasets is expensive").
  MultiHashTableIndex r_index(opts.num_tables, opts.h);
  {
    std::vector<BinaryCode> r_codes;
    r_codes.reserve(r_data.rows());
    for (std::size_t i = 0; i < r_data.rows(); ++i) {
      r_codes.push_back(hash_raw->Hash(r_data.Row(i)));
    }
    HAMMING_RETURN_NOT_OK(r_index.Build(r_codes));
    BufferWriter w;
    r_index.Serialize(&w);
    cluster->cache()->Broadcast(w.Release(), &plan_counters);
  }

  // One MapReduce job: partition S by code hash; each reducer probes the
  // broadcast R index with its S partition.
  const SpectralHashing* hash_ptr = hash_raw;

  mr::JobSpec job;
  job.name = "pmh-join";
  job.options = PlanJobOptions(opts, PartitionKeyRouter());
  job.input_splits = mr::SplitEvenly(MatrixToRecords(s_data, Table::kS),
                                     cluster->total_slots());
  const std::size_t num_partitions = opts.num_partitions;
  job.map_fn = [hash_ptr, num_partitions](const mr::Record& rec,
                                          mr::Emitter* out) -> Status {
    HAMMING_ASSIGN_OR_RETURN(VectorTuple t, DecodeVectorTuple(rec.value));
    CodeTuple ct{t.table, t.id, hash_ptr->Hash(t.vec)};
    // Key by code hash mod N: spreads S uniformly and gives each reducer
    // exactly one key group, so each builds the R index exactly once.
    uint32_t part = static_cast<uint32_t>(ct.code.Hash() % num_partitions);
    out->Emit(PartitionKey(part), EncodeCodeTuple(ct));
    return Status::OK();
  };
  // One group per reducer: probe the broadcast R index once per distinct
  // S code of this partition (per-search work histograms when a metrics
  // registry is attached).
  job.reduce_fn = ProbeReducer(r_index, opts.h, opts.exec.metrics);
  HAMMING_ASSIGN_OR_RETURN(mr::JobResult job_result, RunJob(job, cluster));
  plan_counters.Merge(job_result.counters);
  HAMMING_ASSIGN_OR_RETURN(result.pairs,
                           CollectJoinPairs(job_result.outputs));
  result.shuffle_bytes = plan_counters.Get(mr::kShuffleBytes);
  result.broadcast_bytes = plan_counters.Get(mr::kBroadcastBytes);
  return result;
}

}  // namespace hamming::mrjoin
