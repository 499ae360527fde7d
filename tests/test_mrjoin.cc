// End-to-end tests of the MapReduce join plans: correctness against the
// centralized ground truth and the Section 5.4 shuffle-cost ordering,
// plus the record codecs the plans share (tuple records, pair blocks).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "dataset/generators.h"
#include "dataset/sampling.h"
#include "hashing/spectral_hashing.h"
#include "index/linear_scan.h"
#include "knn/exact_knn.h"
#include "mrjoin/mrha.h"
#include "mrjoin/pgbj.h"
#include "mrjoin/pmh.h"

namespace hamming::mrjoin {
namespace {

class MrJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_data_ = GenerateDataset(DatasetKind::kNusWide, 300,
                              {.num_clusters = 16, .seed = 1});
    s_data_ = GenerateDataset(DatasetKind::kNusWide, 400,
                              {.num_clusters = 16, .seed = 1});
    // Every S row three times, so each reducer group holds several
    // tuples per code.
    std::vector<std::size_t> rows;
    for (int copy = 0; copy < 3; ++copy) {
      for (std::size_t i = 0; i < s_data_.rows(); ++i) rows.push_back(i);
    }
    s_tripled_ = s_data_.GatherRows(rows);
    cluster_ = std::make_unique<mr::Cluster>(
        mr::ClusterOptions{4, 2, 4});
  }

  // Ground truth: hash with the same trained function a plan uses is not
  // observable from outside, so truth is computed per plan by re-running
  // the hash pipeline deterministically (same seed => same model).
  std::vector<JoinPair> CentralizedTruth(const FloatMatrix& s_data,
                                         std::size_t code_bits, std::size_t h,
                                         double sample_rate, uint64_t seed) {
    // Reproduce the MRHA preprocessing exactly.
    Rng rng(seed);
    std::size_t r_n = std::max<std::size_t>(
        2, static_cast<std::size_t>(sample_rate * r_data_.rows()));
    std::size_t s_n = std::max<std::size_t>(
        2, static_cast<std::size_t>(sample_rate * s_data.rows()));
    auto r_ids = ReservoirSampleIndices(r_data_.rows(), r_n, &rng);
    auto s_ids = ReservoirSampleIndices(s_data.rows(), s_n, &rng);
    FloatMatrix sample(r_ids.size() + s_ids.size(), r_data_.cols());
    for (std::size_t i = 0; i < r_ids.size(); ++i) {
      auto src = r_data_.Row(r_ids[i]);
      std::copy(src.begin(), src.end(), sample.MutableRow(i).begin());
    }
    for (std::size_t i = 0; i < s_ids.size(); ++i) {
      auto src = s_data.Row(s_ids[i]);
      std::copy(src.begin(), src.end(),
                sample.MutableRow(r_ids.size() + i).begin());
    }
    SpectralHashingOptions opts;
    opts.code_bits = code_bits;
    auto hash = SpectralHashing::Train(sample, opts).ValueOrDie();
    auto r_codes = hash->HashAll(r_data_);
    auto s_codes = hash->HashAll(s_data);
    auto pairs = NestedLoopsJoin(r_codes, s_codes, h);
    NormalizePairs(&pairs);
    return pairs;
  }

  FloatMatrix r_data_;
  FloatMatrix s_data_;
  FloatMatrix s_tripled_;
  std::unique_ptr<mr::Cluster> cluster_;
};

TEST_F(MrJoinTest, MrhaOptionAMatchesCentralizedJoin) {
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  opts.option = MrhaOption::kA;
  for (const FloatMatrix* s_data : {&s_data_, &s_tripled_}) {
    SCOPED_TRACE(s_data->rows());
    auto result = RunMrhaJoin(r_data_, *s_data, opts, cluster_.get());
    ASSERT_TRUE(result.ok()) << result.status();
    auto pairs = result->pairs;
    NormalizePairs(&pairs);
    auto truth = CentralizedTruth(*s_data, opts.code_bits, opts.h,
                                  opts.sample_rate, opts.seed);
    EXPECT_EQ(pairs, truth);
    EXPECT_GT(result->shuffle_bytes, 0);
    EXPECT_GT(result->broadcast_bytes, 0);
  }
}

TEST_F(MrJoinTest, MrhaOptionBMatchesCentralizedJoin) {
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  opts.option = MrhaOption::kB;
  for (const FloatMatrix* s_data : {&s_data_, &s_tripled_}) {
    SCOPED_TRACE(s_data->rows());
    auto result = RunMrhaJoin(r_data_, *s_data, opts, cluster_.get());
    ASSERT_TRUE(result.ok()) << result.status();
    auto pairs = result->pairs;
    NormalizePairs(&pairs);
    auto truth = CentralizedTruth(*s_data, opts.code_bits, opts.h,
                                  opts.sample_rate, opts.seed);
    EXPECT_EQ(pairs, truth);
  }
}

TEST_F(MrJoinTest, MrhaOptionBBroadcastsLessThanOptionA) {
  // Section 5.3: the leafless index of Option B is smaller to ship.
  MrhaOptions a_opts;
  a_opts.num_partitions = 4;
  a_opts.option = MrhaOption::kA;
  MrhaOptions b_opts = a_opts;
  b_opts.option = MrhaOption::kB;
  mr::Cluster cluster_a({4, 2, 4});
  mr::Cluster cluster_b({4, 2, 4});
  auto a = RunMrhaJoin(r_data_, s_data_, a_opts, &cluster_a).ValueOrDie();
  auto b = RunMrhaJoin(r_data_, s_data_, b_opts, &cluster_b).ValueOrDie();
  EXPECT_LT(b.broadcast_bytes, a.broadcast_bytes);
}

TEST_F(MrJoinTest, MrhaPhaseTimesAreMeasured) {
  MrhaOptions opts;
  opts.num_partitions = 4;
  auto result = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok());
  const auto& t = result->phase_seconds;
  EXPECT_GE(t.sampling, 0.0);
  EXPECT_GT(t.learn_hash, 0.0);
  EXPECT_GT(t.index_build, 0.0);
  EXPECT_GT(t.join, 0.0);
}

TEST_F(MrJoinTest, MrhaRejectsEmptyOrMismatchedInputs) {
  MrhaOptions opts;
  EXPECT_FALSE(
      RunMrhaJoin(FloatMatrix(), s_data_, opts, cluster_.get()).ok());
  FloatMatrix wrong(10, 3);
  EXPECT_FALSE(RunMrhaJoin(wrong, s_data_, opts, cluster_.get()).ok());
}

TEST_F(MrJoinTest, PretrainedHashSkipsLearningPhase) {
  SpectralHashingOptions hopts;
  hopts.code_bits = 32;
  std::shared_ptr<const SpectralHashing> hash(
      SpectralHashing::Train(r_data_, hopts).ValueOrDie().release());
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.pretrained = hash;
  auto result = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->phase_seconds.learn_hash, 0.0);
  // Same hash centrally reproduces the pair set.
  auto truth = NestedLoopsJoin(hash->HashAll(r_data_),
                               hash->HashAll(s_data_), opts.h);
  NormalizePairs(&truth);
  auto pairs = result->pairs;
  NormalizePairs(&pairs);
  EXPECT_EQ(pairs, truth);
}

TEST_F(MrJoinTest, OptionAEmitsOnePairBlockPerProbeBatch) {
  // Reducers emit one pair block per 64-probe batch, not one record per
  // pair: the build job emits at most one index per partition, and each
  // join reducer at most ceil(its probes / 64) blocks.
  MrhaOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  opts.option = MrhaOption::kA;
  auto result = RunMrhaJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  const int64_t bound = static_cast<int64_t>(
      (s_data_.rows() + 63) / 64 + 2 * opts.num_partitions);
  ASSERT_GT(static_cast<int64_t>(result->pairs.size()), bound);
  EXPECT_LE(cluster_->cumulative_counters()->Get(mr::kReduceOutputRecords),
            bound);
}

TEST_F(MrJoinTest, PmhEmitsOnePairBlockPerProbeBatch) {
  PmhOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  auto result = RunPmhJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  const int64_t bound =
      static_cast<int64_t>((s_data_.rows() + 63) / 64 + opts.num_partitions);
  ASSERT_GT(static_cast<int64_t>(result->pairs.size()), bound);
  EXPECT_LE(cluster_->cumulative_counters()->Get(mr::kReduceOutputRecords),
            bound);
}

TEST_F(MrJoinTest, PmhMatchesItsOwnCentralizedTruth) {
  PmhOptions opts;
  opts.num_partitions = 4;
  opts.h = 3;
  // PMH trains on an R-only sample; rebuild the same model for truth.
  Rng rng(opts.seed);
  std::size_t n = std::max<std::size_t>(
      2, static_cast<std::size_t>(opts.sample_rate * r_data_.rows()));
  auto ids = ReservoirSampleIndices(r_data_.rows(), n, &rng);
  auto sample = r_data_.GatherRows(ids);
  SpectralHashingOptions hopts;
  hopts.code_bits = opts.code_bits;
  auto hash = SpectralHashing::Train(sample, hopts).ValueOrDie();
  for (const FloatMatrix* s_data : {&s_data_, &s_tripled_}) {
    SCOPED_TRACE(s_data->rows());
    auto result = RunPmhJoin(r_data_, *s_data, opts, cluster_.get());
    ASSERT_TRUE(result.ok()) << result.status();
    auto truth = NestedLoopsJoin(hash->HashAll(r_data_),
                                 hash->HashAll(*s_data), opts.h);
    NormalizePairs(&truth);
    auto pairs = result->pairs;
    NormalizePairs(&pairs);
    EXPECT_EQ(pairs, truth);
  }
}

// Forwards to a LinearScanIndex and counts the range queries it answers.
class CountingIndex final : public HammingIndex {
 public:
  std::string name() const override { return "counting"; }
  Status Build(const std::vector<BinaryCode>& codes) override {
    return inner_.Build(codes);
  }
  Status SearchBatch(std::span<const QueryRequest> requests,
                     std::span<QueryResponse> responses) const override {
    queries_ += requests.size();
    return inner_.SearchBatch(requests, responses);
  }
  Status Insert(TupleId id, const BinaryCode& code) override {
    return inner_.Insert(id, code);
  }
  Status Delete(TupleId id, const BinaryCode& code) override {
    return inner_.Delete(id, code);
  }
  std::size_t size() const override { return inner_.size(); }
  MemoryBreakdown Memory() const override { return inner_.Memory(); }

  std::size_t queries() const { return queries_; }

 private:
  LinearScanIndex inner_;
  mutable std::size_t queries_ = 0;
};

TEST(MrJoinProbeReducer, SearchesEachDistinctCodeOnce) {
  constexpr std::size_t kH = 3;
  constexpr std::size_t kCodes = 7;
  Rng rng(11);
  std::vector<BinaryCode> distinct;
  for (std::size_t i = 0; i < kCodes; ++i) {
    distinct.push_back(
        BinaryCode::FromUint64(rng.NextWord() >> 32, 32).ValueOrDie());
  }
  // R: each distinct code with 0..5 random bit flips, so some R tuples
  // qualify and some do not.
  std::vector<BinaryCode> r_codes;
  for (std::size_t i = 0; i < 70; ++i) {
    BinaryCode c = distinct[i % kCodes];
    for (int64_t f = rng.UniformInt(0, 5); f > 0; --f) {
      c.FlipBit(static_cast<std::size_t>(rng.UniformInt(0, 31)));
    }
    r_codes.push_back(c);
  }
  CountingIndex index;
  ASSERT_TRUE(index.Build(r_codes).ok());

  // One key group of 200 S records interleaving the 7 codes.
  std::vector<BinaryCode> s_codes;
  std::vector<std::vector<uint8_t>> values;
  for (TupleId s = 0; s < 200; ++s) {
    s_codes.push_back(distinct[s % kCodes]);
    values.push_back(EncodeCodeTuple({Table::kS, s, s_codes.back()}));
  }
  obs::MetricsRegistry registry;
  mr::Emitter out;
  ASSERT_TRUE(ProbeReducer(index, kH, &registry)({}, values, &out).ok());
  EXPECT_EQ(index.queries(), kCodes);

  // Per-tuple probing, checked against the nested-loops join.
  LinearScanIndex scan;
  ASSERT_TRUE(scan.Build(r_codes).ok());
  std::vector<QueryRequest> reqs;
  for (const BinaryCode& c : s_codes) {
    reqs.push_back(QueryRequest::Range(c, kH));
  }
  std::vector<QueryResponse> resps(reqs.size());
  ASSERT_TRUE(scan.SearchBatch(reqs, resps).ok());
  std::vector<JoinPair> per_tuple;
  for (TupleId s = 0; s < resps.size(); ++s) {
    ASSERT_TRUE(resps[s].status.ok());
    for (TupleId r : resps[s].ids) per_tuple.push_back({r, s});
  }
  NormalizePairs(&per_tuple);
  auto truth = NestedLoopsJoin(r_codes, s_codes, kH);
  NormalizePairs(&truth);
  ASSERT_FALSE(truth.empty());
  ASSERT_EQ(per_tuple, truth);

  auto pairs = CollectJoinPairs({out.records()});
  ASSERT_TRUE(pairs.ok()) << pairs.status();
  NormalizePairs(&*pairs);
  EXPECT_EQ(*pairs, per_tuple);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_TRUE(snap.histograms.count("query.candidates"));
  EXPECT_EQ(snap.histograms.at("query.candidates").count, kCodes);
}

TEST(MrJoinProbeReducer, GroupByCodeOrdersByCodeThenRecord) {
  const BinaryCode a = BinaryCode::FromString("0011").ValueOrDie();
  const BinaryCode b = BinaryCode::FromString("1100").ValueOrDie();
  std::vector<std::vector<uint8_t>> values;
  for (TupleId id : {5, 2, 9, 1}) {
    values.push_back(EncodeCodeTuple({Table::kS, id, id % 2 ? b : a}));
  }
  auto groups = GroupByCode(values);
  ASSERT_TRUE(groups.ok()) << groups.status();
  ASSERT_EQ(groups->num_codes(), 2u);
  EXPECT_EQ(groups->code(0), a);
  EXPECT_EQ(groups->code(1), b);
  std::vector<TupleId> ids;
  for (std::size_t k = 0; k < 2; ++k) {
    for (const CodeTuple& t : groups->TuplesOf(k)) ids.push_back(t.id);
  }
  EXPECT_EQ(ids, (std::vector<TupleId>{2, 5, 9, 1}));

  EXPECT_EQ(GroupByCode({})->num_codes(), 0u);
  values.push_back({0x07});
  EXPECT_TRUE(GroupByCode(values).status().IsIOError());
}

TEST_F(MrJoinTest, PgbjProducesExactKnnResults) {
  PgbjOptions opts;
  opts.num_partitions = 4;
  opts.k = 5;
  opts.theta_slack = 3.0;
  auto result = RunPgbjJoin(r_data_, s_data_, opts, cluster_.get());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), r_data_.rows());
  // Verify exactness on a handful of rows.
  double recall = 0.0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& row = result->rows[i];
    auto exact = ExactKnn(s_data_, r_data_.Row(row.r), opts.k);
    std::vector<std::size_t> got(row.neighbors.begin(), row.neighbors.end());
    recall += RecallAtK(exact, got);
  }
  recall /= 20.0;
  EXPECT_GT(recall, 0.95) << "PGBJ with generous slack should be ~exact";
}

TEST_F(MrJoinTest, ShuffleCostOrderingMatchesFigure7) {
  // The paper's headline distribution result: PGBJ's replicated vector
  // shuffle dominates PMH's broadcast multi-table index, which dominates
  // MRHA's compact HA-Index broadcast. At tiny scales the (shared) hash
  // model dominates everything, so this check uses a larger input.
  FloatMatrix r_big = GenerateDataset(DatasetKind::kNusWide, 2000,
                                      {.num_clusters = 16, .seed = 2});
  FloatMatrix s_big = GenerateDataset(DatasetKind::kNusWide, 2000,
                                      {.num_clusters = 16, .seed = 3});
  mr::Cluster c1({4, 2, 4}), c2({4, 2, 4}), c3({4, 2, 4});
  MrhaOptions mrha_opts;
  mrha_opts.num_partitions = 4;
  PmhOptions pmh_opts;
  pmh_opts.num_partitions = 4;
  PgbjOptions pgbj_opts;
  pgbj_opts.num_partitions = 4;
  pgbj_opts.k = 5;

  auto mrha = RunMrhaJoin(r_big, s_big, mrha_opts, &c1).ValueOrDie();
  auto pmh = RunPmhJoin(r_big, s_big, pmh_opts, &c2).ValueOrDie();
  auto pgbj = RunPgbjJoin(r_big, s_big, pgbj_opts, &c3).ValueOrDie();

  int64_t mrha_total = mrha.shuffle_bytes + mrha.broadcast_bytes;
  int64_t pmh_total = pmh.shuffle_bytes + pmh.broadcast_bytes;
  int64_t pgbj_total = pgbj.shuffle_bytes + pgbj.broadcast_bytes;
  EXPECT_GT(pgbj_total, pmh_total);
  EXPECT_GT(pmh_total, mrha_total);
}

// A vector record written field by field, so tests can make it lie.
std::vector<uint8_t> RawVectorRecord(uint64_t tag, uint64_t id,
                                     uint64_t count, std::size_t doubles) {
  BufferWriter w;
  w.PutVarint64(tag);
  w.PutVarint64(id);
  w.PutVarint64(count);
  for (std::size_t i = 0; i < doubles; ++i) w.PutDouble(0.5 * i);
  return w.Release();
}

std::vector<uint8_t> RawCodeRecord(uint64_t tag, uint64_t id) {
  BufferWriter w;
  w.PutVarint64(tag);
  w.PutVarint64(id);
  BinaryCode::FromString("10100101").ValueOrDie().Serialize(&w);
  return w.Release();
}

TEST(MrJoinCodec, TupleRecordsKeepTheirWireFormat) {
  // Tag, varint id, then the payload: count + fixed64 doubles for a
  // vector record, nbits + MSB-first packed bytes for a code record.
  const std::vector<uint8_t> vec_bytes =
      EncodeVectorTuple({Table::kS, 300, {1.5}});
  EXPECT_EQ(vec_bytes,
            (std::vector<uint8_t>{0x01, 0xac, 0x02, 0x01, 0x00, 0x00, 0x00,
                                  0x00, 0x00, 0x00, 0xf8, 0x3f}));
  // Several elements, with -0.0 and the smallest subnormal: each is its
  // IEEE-754 bit pattern, little-endian, in order.
  const std::vector<uint8_t> multi_bytes = EncodeVectorTuple(
      {Table::kR, 1,
       {-0.0, std::numeric_limits<double>::denorm_min(), -2.0}});
  EXPECT_EQ(multi_bytes,
            (std::vector<uint8_t>{
                0x00, 0x01, 0x03,                                // R, 1, 3
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
                0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 2^-1074
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0}));  // -2.0
  auto multi = DecodeVectorTuple(multi_bytes);
  ASSERT_TRUE(multi.ok()) << multi.status();
  ASSERT_EQ(multi->vec.size(), 3u);
  EXPECT_TRUE(std::signbit(multi->vec[0]));
  EXPECT_EQ(multi->vec[0], 0.0);
  EXPECT_EQ(multi->vec[1], std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(multi->vec[2], -2.0);
  const std::vector<uint8_t> code_bytes = EncodeCodeTuple(
      {Table::kR, 300,
       BinaryCode::FromString("1010 0101 1111 0000").ValueOrDie()});
  EXPECT_EQ(code_bytes,
            (std::vector<uint8_t>{0x00, 0xac, 0x02, 0x10, 0xa5, 0xf0}));

  // MatrixToRecords writes the same bytes as EncodeVectorTuple.
  FloatMatrix m(2, 3);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t d = 0; d < 3; ++d) m.MutableRow(i)[d] =
          static_cast<double>(i) - 0.25 * static_cast<double>(d);
  }
  const auto records = MatrixToRecords(m, Table::kS);
  ASSERT_EQ(records.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto row = m.Row(i);
    EXPECT_TRUE(records[i].key.empty());
    EXPECT_EQ(records[i].value,
              EncodeVectorTuple({Table::kS, static_cast<TupleId>(i),
                                 std::vector<double>(row.begin(), row.end())}));
  }
}

TEST(MrJoinCodec, TupleRecordsRoundTrip) {
  VectorTuple v{Table::kS, UINT32_MAX, {1.0, -2.5, 1e300}};
  auto vt = DecodeVectorTuple(EncodeVectorTuple(v));
  ASSERT_TRUE(vt.ok()) << vt.status();
  EXPECT_EQ(vt->table, Table::kS);
  EXPECT_EQ(vt->id, UINT32_MAX);
  EXPECT_EQ(vt->vec, v.vec);

  auto empty = DecodeVectorTuple(EncodeVectorTuple({Table::kR, 0, {}}));
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->vec.empty());

  CodeTuple c{Table::kR, UINT32_MAX,
              BinaryCode::FromUint64(0x123456789ull, 40).ValueOrDie()};
  auto ct = DecodeCodeTuple(EncodeCodeTuple(c));
  ASSERT_TRUE(ct.ok()) << ct.status();
  EXPECT_EQ(ct->table, Table::kR);
  EXPECT_EQ(ct->id, UINT32_MAX);
  EXPECT_EQ(ct->code, c.code);
}

TEST(MrJoinCodec, VectorCountBeyondPayloadIsIOError) {
  // A count of 2^40 used to reach vector::resize and abort the process
  // with std::bad_alloc; it must be refused before allocating.
  EXPECT_TRUE(DecodeVectorTuple(RawVectorRecord(0, 1, uint64_t{1} << 40, 2))
                  .status()
                  .IsIOError());
  EXPECT_TRUE(DecodeVectorTuple(RawVectorRecord(0, 1, UINT64_MAX, 0))
                  .status()
                  .IsIOError());
  EXPECT_TRUE(
      DecodeVectorTuple(RawVectorRecord(0, 1, 3, 2)).status().IsIOError());
  EXPECT_TRUE(DecodeVectorTuple(RawVectorRecord(0, 1, 2, 2)).ok());
}

TEST(MrJoinCodec, UnknownTableTagIsIOError) {
  EXPECT_TRUE(
      DecodeVectorTuple(RawVectorRecord(9, 1, 1, 1)).status().IsIOError());
  EXPECT_TRUE(DecodeCodeTuple(RawCodeRecord(9, 1)).status().IsIOError());
  EXPECT_TRUE(DecodeVectorTuple(RawVectorRecord(1, 1, 1, 1)).ok());
  EXPECT_TRUE(DecodeCodeTuple(RawCodeRecord(1, 1)).ok());
}

TEST(MrJoinCodec, IdAboveUint32MaxIsIOError) {
  const uint64_t too_big = uint64_t{UINT32_MAX} + 1;
  EXPECT_TRUE(DecodeVectorTuple(RawVectorRecord(0, too_big, 1, 1))
                  .status()
                  .IsIOError());
  EXPECT_TRUE(DecodeCodeTuple(RawCodeRecord(0, too_big)).status().IsIOError());
}

TEST(MrJoinCodec, TrailingBytesAreIOError) {
  std::vector<uint8_t> vec = EncodeVectorTuple({Table::kR, 7, {1.0, 2.0}});
  vec.push_back(0);
  EXPECT_TRUE(DecodeVectorTuple(vec).status().IsIOError());
  std::vector<uint8_t> code = RawCodeRecord(0, 7);
  code.push_back(0);
  EXPECT_TRUE(DecodeCodeTuple(code).status().IsIOError());
}

TEST(MrJoinCodec, PairBlockRoundTrips) {
  std::vector<JoinPair> out;
  EXPECT_TRUE(EncodePairBlock({}).empty());
  ASSERT_TRUE(DecodePairBlock({}, &out).ok());
  EXPECT_TRUE(out.empty());

  // One pair: fixed32 r then fixed32 s, little-endian.
  const std::vector<JoinPair> one{{1, 0x01020304}};
  const std::vector<uint8_t> one_bytes = EncodePairBlock(one);
  EXPECT_EQ(one_bytes, (std::vector<uint8_t>{0x01, 0x00, 0x00, 0x00, 0x04,
                                             0x03, 0x02, 0x01}));
  ASSERT_TRUE(DecodePairBlock(one_bytes, &out).ok());
  EXPECT_EQ(out, one);

  // Decoding appends, keeping the block's order.
  Rng rng(5);
  std::vector<JoinPair> many;
  for (int i = 0; i < 1000; ++i) {
    many.push_back({static_cast<TupleId>(rng.NextWord()),
                    static_cast<TupleId>(rng.NextWord())});
  }
  many.push_back({UINT32_MAX, UINT32_MAX});
  const std::vector<uint8_t> many_bytes = EncodePairBlock(many);
  EXPECT_EQ(many_bytes.size(), 8 * many.size());
  ASSERT_TRUE(DecodePairBlock(many_bytes, &out).ok());
  std::vector<JoinPair> want = one;
  want.insert(want.end(), many.begin(), many.end());
  EXPECT_EQ(out, want);
}

TEST(MrJoinCodec, CollectJoinPairsKeepsOrderAndRejectsTornBlocks) {
  const std::vector<JoinPair> a{{3, 1}, {0, 2}};
  const std::vector<JoinPair> b{{UINT32_MAX, 0}};
  std::vector<std::vector<mr::Record>> outputs(3);
  outputs[0].push_back({{}, EncodePairBlock(a)});
  outputs[2].push_back({{}, EncodePairBlock(b)});
  outputs[2].push_back({{}, EncodePairBlock(a)});
  auto pairs = CollectJoinPairs(outputs);
  ASSERT_TRUE(pairs.ok()) << pairs.status();
  EXPECT_EQ(*pairs, (std::vector<JoinPair>{{3, 1}, {0, 2}, {UINT32_MAX, 0},
                                           {3, 1}, {0, 2}}));

  std::vector<uint8_t> torn = EncodePairBlock(b);
  torn.pop_back();
  ASSERT_EQ(torn.size(), 7u);
  outputs[1].push_back({{}, torn});
  EXPECT_TRUE(CollectJoinPairs(outputs).status().IsIOError());
}

}  // namespace
}  // namespace hamming::mrjoin
