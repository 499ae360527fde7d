#include "mrjoin/common.h"

#include <algorithm>

#include "observability/query_stats.h"

namespace hamming::mrjoin {

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
  for (double v : vec) w.PutDouble(v);
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
  for (double& v : t.vec) HAMMING_RETURN_NOT_OK(r.GetDouble(&v));
  if (!r.AtEnd()) return Status::IOError("trailing bytes in vector record");
  return t;
}

std::vector<uint8_t> EncodePairBlock(std::span<const JoinPair> pairs) {
  BufferWriter w;
  w.Reserve(8 * pairs.size());
  for (const JoinPair& p : pairs) {
    w.PutFixed32(p.r);
    w.PutFixed32(p.s);
  }
  return w.Release();
}

Status DecodePairBlock(const std::vector<uint8_t>& block,
                       std::vector<JoinPair>* out) {
  if (block.size() % 8 != 0) {
    return Status::IOError("pair block length is not a multiple of 8");
  }
  const uint8_t* p = block.data();
  for (std::size_t i = 0; i < block.size(); i += 8) {
    out->push_back({DecodeFixed32(p + i), DecodeFixed32(p + i + 4)});
  }
  return Status::OK();
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

mr::ReduceFn ProbeReducer(const HammingIndex& index, std::size_t h,
                          obs::MetricsRegistry* metrics) {
  const obs::QueryStatsHistograms hists =
      obs::QueryStatsHistograms::Register(metrics);
  return [&index, h, metrics, hists](
             const std::vector<uint8_t>&,
             const std::vector<std::vector<uint8_t>>& values,
             mr::Emitter* out) -> Status {
    // Each response still carries its own per-query work counters, so
    // the histograms get one sample per probe.
    constexpr std::size_t kProbeBatch = 64;
    std::vector<TupleId> s_ids;
    std::vector<QueryRequest> reqs;
    std::vector<QueryResponse> resps;
    std::vector<JoinPair> block;
    s_ids.reserve(kProbeBatch);
    reqs.reserve(kProbeBatch);
    for (std::size_t begin = 0; begin < values.size(); begin += kProbeBatch) {
      const std::size_t count = std::min(kProbeBatch, values.size() - begin);
      s_ids.clear();
      reqs.clear();
      for (std::size_t i = 0; i < count; ++i) {
        HAMMING_ASSIGN_OR_RETURN(CodeTuple t,
                                 DecodeCodeTuple(values[begin + i]));
        s_ids.push_back(t.id);
        reqs.push_back(QueryRequest::Range(std::move(t.code), h));
      }
      resps.resize(count);
      HAMMING_RETURN_NOT_OK(index.SearchBatch(reqs, resps));
      block.clear();
      for (std::size_t i = 0; i < count; ++i) {
        HAMMING_RETURN_NOT_OK(resps[i].status);
        if (metrics != nullptr) hists.Observe(metrics, resps[i].stats);
        for (TupleId r : resps[i].ids) block.push_back({r, s_ids[i]});
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
