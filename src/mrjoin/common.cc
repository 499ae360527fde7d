#include "mrjoin/common.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <type_traits>

#include "observability/query_stats.h"

namespace hamming::mrjoin {

// Vector records and pair blocks move as one block copy of the native
// arrays, which is the little-endian wire format only on a little-endian
// host with IEEE-754 doubles and a padding-free JoinPair. Any other host
// fails to compile here rather than write different bytes.
static_assert(std::endian::native == std::endian::little,
              "record codecs copy native little-endian arrays");
static_assert(sizeof(double) == 8 && std::numeric_limits<double>::is_iec559,
              "vector records carry IEEE-754 doubles");
static_assert(sizeof(JoinPair) == 8 && offsetof(JoinPair, s) == 4 &&
                  std::is_trivially_copyable_v<JoinPair>,
              "a pair block is a JoinPair array");

mr::ExecutionOptions PlanJobOptions(const MRJoinOptions& opts,
                                    mr::PartitionFn partition_fn) {
  mr::ExecutionOptions exec = opts.exec;
  exec.num_reducers = opts.num_partitions;
  exec.partition_fn = std::move(partition_fn);
  return exec;
}

mr::PartitionFn PartitionKeyRouter() {
  return [](const std::vector<uint8_t>& key, std::size_t num_reducers) {
    auto part = DecodePartitionKey(key);
    return part.ok() ? static_cast<std::size_t>(*part) % num_reducers : 0u;
  };
}

namespace {

// Reads the (table tag, tuple id) head every tuple record starts with.
Status GetTupleHead(BufferReader* r, Table* table, TupleId* id) {
  uint64_t tag, raw_id;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&tag));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&raw_id));
  if (tag != static_cast<uint64_t>(Table::kR) &&
      tag != static_cast<uint64_t>(Table::kS)) {
    return Status::IOError("unknown table tag");
  }
  if (raw_id > UINT32_MAX) return Status::IOError("tuple id out of range");
  *table = static_cast<Table>(tag);
  *id = static_cast<TupleId>(raw_id);
  return Status::OK();
}

std::vector<uint8_t> EncodeVector(Table table, TupleId id,
                                  std::span<const double> vec) {
  BufferWriter w;
  w.Reserve(VarintLength(static_cast<uint64_t>(table)) + VarintLength(id) +
            VarintLength(vec.size()) + 8 * vec.size());
  w.PutVarint64(static_cast<uint64_t>(table));
  w.PutVarint64(id);
  w.PutVarint64(vec.size());
  w.PutRaw(vec.data(), 8 * vec.size());
  return w.Release();
}

}  // namespace

std::vector<uint8_t> EncodeCodeTuple(const CodeTuple& t) {
  BufferWriter w;
  w.Reserve(VarintLength(static_cast<uint64_t>(t.table)) +
            VarintLength(t.id) + VarintLength(t.code.size()) +
            t.code.PackedBytes());
  w.PutVarint64(static_cast<uint64_t>(t.table));
  w.PutVarint64(t.id);
  t.code.Serialize(&w);
  return w.Release();
}

Result<CodeTuple> DecodeCodeTuple(const std::vector<uint8_t>& bytes) {
  BufferReader r(bytes);
  CodeTuple t;
  HAMMING_RETURN_NOT_OK(GetTupleHead(&r, &t.table, &t.id));
  HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(&r, &t.code));
  if (!r.AtEnd()) return Status::IOError("trailing bytes in code record");
  return t;
}

std::vector<uint8_t> EncodeVectorTuple(const VectorTuple& t) {
  return EncodeVector(t.table, t.id, t.vec);
}

Result<VectorTuple> DecodeVectorTuple(const std::vector<uint8_t>& bytes) {
  BufferReader r(bytes);
  VectorTuple t;
  uint64_t n;
  HAMMING_RETURN_NOT_OK(GetTupleHead(&r, &t.table, &t.id));
  HAMMING_RETURN_NOT_OK(r.GetVarint64(&n));
  if (n > r.remaining() / 8) {
    return Status::IOError("vector record shorter than its element count");
  }
  t.vec.resize(n);
  HAMMING_RETURN_NOT_OK(r.GetRaw(t.vec.data(), 8 * n));
  if (!r.AtEnd()) return Status::IOError("trailing bytes in vector record");
  return t;
}

std::vector<uint8_t> EncodePairBlock(std::span<const JoinPair> pairs) {
  BufferWriter w;
  w.Reserve(8 * pairs.size());
  w.PutRaw(pairs.data(), 8 * pairs.size());
  return w.Release();
}

Status DecodePairBlock(const std::vector<uint8_t>& block,
                       std::vector<JoinPair>* out) {
  if (block.size() % 8 != 0) {
    return Status::IOError("pair block length is not a multiple of 8");
  }
  const std::size_t at = out->size();
  out->resize(at + block.size() / 8);
  BufferReader r(block);
  return r.GetRaw(out->data() + at, block.size());
}

std::vector<uint8_t> PartitionKey(uint32_t partition) {
  BufferWriter w;
  w.Reserve(4);
  w.PutFixed32(partition);
  return w.Release();
}

Result<uint32_t> DecodePartitionKey(const std::vector<uint8_t>& key) {
  BufferReader r(key);
  uint32_t p;
  HAMMING_RETURN_NOT_OK(r.GetFixed32(&p));
  return p;
}

std::vector<mr::Record> MatrixToRecords(const FloatMatrix& data,
                                        Table table) {
  std::vector<mr::Record> out;
  out.reserve(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    out.push_back(
        {{}, EncodeVector(table, static_cast<TupleId>(i), data.Row(i))});
  }
  return out;
}

Result<CodeGroups> GroupByCode(
    const std::vector<std::vector<uint8_t>>& values) {
  CodeGroups groups;
  std::vector<CodeTuple>& tuples = groups.tuples;
  tuples.reserve(values.size());
  for (const auto& v : values) {
    HAMMING_ASSIGN_OR_RETURN(CodeTuple t, DecodeCodeTuple(v));
    tuples.push_back(std::move(t));
  }
  // Stable, so ties keep record order. Length first keeps the order
  // strict even over a malformed group that mixes code lengths.
  std::stable_sort(tuples.begin(), tuples.end(),
                   [](const CodeTuple& a, const CodeTuple& b) {
                     if (a.code.size() != b.code.size()) {
                       return a.code.size() < b.code.size();
                     }
                     return a.code < b.code;
                   });
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (i == 0 || tuples[i].code != tuples[i - 1].code) {
      groups.starts.push_back(i);
    }
  }
  groups.starts.push_back(tuples.size());
  return groups;
}

mr::ReduceFn ProbeReducer(const HammingIndex& index, std::size_t h,
                          obs::MetricsRegistry* metrics) {
  const obs::QueryStatsHistograms hists =
      obs::QueryStatsHistograms::Register(metrics);
  return [&index, h, metrics, hists](
             const std::vector<uint8_t>&,
             const std::vector<std::vector<uint8_t>>& values,
             mr::Emitter* out) -> Status {
    HAMMING_ASSIGN_OR_RETURN(CodeGroups groups, GroupByCode(values));
    // One search per distinct code. Each response carries that search's
    // own work counters, so the histograms get one sample per search.
    constexpr std::size_t kProbeBatch = 64;
    const std::size_t num_codes = groups.num_codes();
    std::vector<QueryRequest> reqs;
    std::vector<QueryResponse> resps;
    std::vector<JoinPair> block;
    reqs.reserve(kProbeBatch);
    for (std::size_t begin = 0; begin < num_codes; begin += kProbeBatch) {
      const std::size_t count = std::min(kProbeBatch, num_codes - begin);
      reqs.clear();
      for (std::size_t i = 0; i < count; ++i) {
        reqs.push_back(QueryRequest::Range(groups.code(begin + i), h));
      }
      resps.resize(count);
      HAMMING_RETURN_NOT_OK(index.SearchBatch(reqs, resps));
      block.clear();
      for (std::size_t i = 0; i < count; ++i) {
        HAMMING_RETURN_NOT_OK(resps[i].status);
        if (metrics != nullptr) hists.Observe(metrics, resps[i].stats);
        for (const CodeTuple& s : groups.TuplesOf(begin + i)) {
          for (TupleId r : resps[i].ids) block.push_back({r, s.id});
        }
      }
      if (!block.empty()) out->Emit({}, EncodePairBlock(block));
    }
    return Status::OK();
  };
}

Result<std::vector<JoinPair>> CollectJoinPairs(
    const std::vector<std::vector<mr::Record>>& outputs) {
  std::size_t bytes = 0;
  for (const auto& part : outputs) {
    for (const auto& rec : part) bytes += rec.value.size();
  }
  std::vector<JoinPair> pairs;
  pairs.reserve(bytes / 8);
  for (const auto& part : outputs) {
    for (const auto& rec : part) {
      HAMMING_RETURN_NOT_OK(DecodePairBlock(rec.value, &pairs));
    }
  }
  return pairs;
}

}  // namespace hamming::mrjoin
