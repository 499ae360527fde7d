// Record codecs shared by the MapReduce join plans.
//
// Two record families cross the shuffle:
//  * code records — (table tag, tuple id, binary code). The hash-based
//    plans (PMH, MRHA) ship these; their size is independent of the data
//    dimensionality, which is why Figure 7 shows them an order of
//    magnitude below PGBJ.
//  * vector records — (table tag, tuple id, full d-dimensional vector).
//    PGBJ must ship these because it joins in the original metric space;
//    its shuffle grows with d and with replication.
//
// A third family never crosses the shuffle:
//  * pair blocks — the (r, s) join pairs one reducer call found, as
//    little-endian fixed32 pairs back to back under an empty key. They
//    are final reducer output that the plan decodes with
//    CollectJoinPairs and never re-shuffles, so they charge no
//    SHUFFLE_BYTES; one block per probe batch or key group replaces one
//    heap-allocated record per pair.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "code/binary_code.h"
#include "common/result.h"
#include "dataset/matrix.h"
#include "index/hamming_index.h"
#include "join/centralized_join.h"
#include "mapreduce/job.h"
#include "observability/metrics.h"

namespace hamming::mrjoin {

/// \brief Knobs every MapReduce join plan shares.
///
/// Each plan's options struct inherits this base, so the partition count,
/// the Hamming threshold and the per-job execution options (attempts,
/// speculation, fault injection, event tracing) are spelled identically
/// across MRHA, PMH and PGBJ. Fields a plan does not use (PGBJ joins in
/// the original metric space, so `code_bits` and `h` are ignored there)
/// simply stay at their defaults.
struct MRJoinOptions {
  std::size_t num_partitions = 16;  ///< reducers per MapReduce job
  std::size_t code_bits = 32;       ///< binary code length L
  std::size_t h = 3;                ///< Hamming join threshold
  double sample_rate = 0.1;         ///< driver-side sampling fraction
  uint64_t seed = 42;
  /// Execution options forwarded into every JobSpec the plan runs. The
  /// plan overwrites `exec.num_reducers` (from num_partitions) and
  /// `exec.partition_fn` per job; the attempt/speculation/fault/observer
  /// fields pass through untouched.
  mr::ExecutionOptions exec;
};

/// \brief Execution options for one of a plan's jobs: the shared `exec`
/// block with the plan's reducer count and this job's partitioner
/// plugged in.
mr::ExecutionOptions PlanJobOptions(const MRJoinOptions& opts,
                                    mr::PartitionFn partition_fn);

/// \brief The partitioner every plan's partition-keyed jobs share: keys
/// are fixed32 PartitionKey ids, routed id % num_reducers.
mr::PartitionFn PartitionKeyRouter();

/// \brief Which input table a record came from.
enum class Table : uint8_t { kR = 0, kS = 1 };

/// \brief A (table, id, code) payload.
struct CodeTuple {
  Table table;
  TupleId id;
  BinaryCode code;
};

/// \brief A (table, id, vector) payload.
struct VectorTuple {
  Table table;
  TupleId id;
  std::vector<double> vec;
};

/// \brief Encodes/decodes a CodeTuple into a record value. Decoding
/// returns IOError on an unknown table tag, an id above UINT32_MAX, a
/// malformed code or trailing bytes.
std::vector<uint8_t> EncodeCodeTuple(const CodeTuple& t);
Result<CodeTuple> DecodeCodeTuple(const std::vector<uint8_t>& bytes);

/// \brief Encodes/decodes a VectorTuple into a record value. Decoding
/// returns IOError on an unknown table tag, an id above UINT32_MAX, an
/// element count the remaining bytes cannot hold (checked before
/// allocating) or trailing bytes.
std::vector<uint8_t> EncodeVectorTuple(const VectorTuple& t);
Result<VectorTuple> DecodeVectorTuple(const std::vector<uint8_t>& bytes);

/// \brief Encodes join pairs as one pair block: fixed32 r, fixed32 s per
/// pair, in order, in one exactly sized buffer.
std::vector<uint8_t> EncodePairBlock(std::span<const JoinPair> pairs);

/// \brief Appends a pair block's pairs to `out`, in order; IOError when
/// the block's length is not a multiple of 8.
Status DecodePairBlock(const std::vector<uint8_t>& block,
                       std::vector<JoinPair>* out);

/// \brief A fixed32 partition-id key (keeps keys tiny and orderable).
std::vector<uint8_t> PartitionKey(uint32_t partition);
Result<uint32_t> DecodePartitionKey(const std::vector<uint8_t>& key);

/// \brief Wraps every row of a matrix into vector records of one table
/// (key left empty; mappers key their own output). Each row is encoded
/// straight from the matrix into an exactly sized value.
std::vector<mr::Record> MatrixToRecords(const FloatMatrix& data, Table table);

/// \brief A key group's code records grouped by code, so a join reducer
/// H-Searches each distinct code once: tuples that share a code get
/// identical answers (the reason the HA-Index keeps them in one leaf).
/// `tuples` holds the decoded records ordered by code, ties in record
/// order, so the grouping is a function of the group's values alone and
/// a re-executed attempt reproduces it. Distinct code k owns
/// tuples[starts[k], starts[k + 1]).
struct CodeGroups {
  std::vector<CodeTuple> tuples;
  std::vector<std::size_t> starts;  ///< one per distinct code, then size

  std::size_t num_codes() const { return starts.size() - 1; }
  const BinaryCode& code(std::size_t k) const {
    return tuples[starts[k]].code;
  }
  std::span<const CodeTuple> TuplesOf(std::size_t k) const {
    return std::span<const CodeTuple>(tuples).subspan(
        starts[k], starts[k + 1] - starts[k]);
  }
};

/// \brief Decodes a key group's code records and groups them by code;
/// the first malformed record's IOError.
Result<CodeGroups> GroupByCode(
    const std::vector<std::vector<uint8_t>>& values);

/// \brief The probe reducer MRHA Option A and PMH share. It groups the
/// key group's code records by code (GroupByCode), range-searches
/// `index` at radius `h` once per distinct code in batches of 64 codes,
/// observes each search's QueryStats into the `query.*` histograms when
/// `metrics` is set (one sample per search, not per tuple), and emits
/// one pair block per batch that matched anything: for each code in
/// the batch, (r, s) for every S tuple s of that code, so pairs come
/// out grouped by code. `index` must outlive every job the reducer runs
/// in.
mr::ReduceFn ProbeReducer(const HammingIndex& index, std::size_t h,
                          obs::MetricsRegistry* metrics);

/// \brief Decodes every reducer's pair blocks into one presized list,
/// in reducer, block and emission order.
Result<std::vector<JoinPair>> CollectJoinPairs(
    const std::vector<std::vector<mr::Record>>& outputs);

}  // namespace hamming::mrjoin
