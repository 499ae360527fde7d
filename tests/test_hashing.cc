#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dataset/generators.h"
#include "hashing/eigen.h"
#include "hashing/spectral_hashing.h"
#include "hashing/zorder.h"
#include "storage/file_io.h"

namespace hamming {
namespace {

// ---------------------------------------------------------------------------
// Jacobi eigensolver
// ---------------------------------------------------------------------------

TEST(Eigen, DiagonalMatrix) {
  FloatMatrix a(3, 3);
  a.At(0, 0) = 3.0;
  a.At(1, 1) = 1.0;
  a.At(2, 2) = 2.0;
  EigenDecomposition eig;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &eig).ok());
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 1.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1, eigenvectors (1,1) and (1,-1).
  FloatMatrix a(2, 2);
  a.At(0, 0) = 2.0;
  a.At(0, 1) = 1.0;
  a.At(1, 0) = 1.0;
  a.At(1, 1) = 2.0;
  EigenDecomposition eig;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &eig).ok());
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-10);
  auto v0 = eig.eigenvectors.Row(0);
  EXPECT_NEAR(std::abs(v0[0]), std::sqrt(0.5), 1e-8);
  EXPECT_NEAR(v0[0], v0[1], 1e-8);
}

TEST(Eigen, ReconstructsMatrix) {
  // A = V^T diag(w) V must reproduce the input.
  Rng rng(3);
  const std::size_t n = 8;
  FloatMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double v = rng.Gaussian();
      a.At(i, j) = v;
      a.At(j, i) = v;
    }
  }
  EigenDecomposition eig;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &eig).ok());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += eig.eigenvectors.At(k, i) * eig.eigenvalues[k] *
               eig.eigenvectors.At(k, j);
      }
      EXPECT_NEAR(sum, a.At(i, j), 1e-8);
    }
  }
}

TEST(Eigen, EigenvectorsAreOrthonormal) {
  Rng rng(5);
  const std::size_t n = 10;
  FloatMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double v = rng.Gaussian();
      a.At(i, j) = v;
      a.At(j, i) = v;
    }
  }
  EigenDecomposition eig;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &eig).ok());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        dot += eig.eigenvectors.At(i, k) * eig.eigenvectors.At(j, k);
      }
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(Eigen, RejectsNonSquare) {
  FloatMatrix a(2, 3);
  EigenDecomposition eig;
  EXPECT_TRUE(JacobiEigenSymmetric(a, &eig).IsInvalidArgument());
}

TEST(Eigen, CovarianceOfKnownData) {
  // Two perfectly correlated columns.
  FloatMatrix data(3, 2);
  data.At(0, 0) = 1.0;
  data.At(0, 1) = 2.0;
  data.At(1, 0) = 2.0;
  data.At(1, 1) = 4.0;
  data.At(2, 0) = 3.0;
  data.At(2, 1) = 6.0;
  auto cov = CovarianceMatrix(data);
  EXPECT_NEAR(cov.At(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(cov.At(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(cov.At(1, 1), 4.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Spectral Hashing
// ---------------------------------------------------------------------------

TEST(SpectralHashing, TrainValidation) {
  FloatMatrix tiny(1, 4);
  SpectralHashingOptions opts;
  EXPECT_FALSE(SpectralHashing::Train(tiny, opts).ok());
  FloatMatrix data = GenerateDataset(DatasetKind::kNusWide, 50);
  opts.code_bits = 0;
  EXPECT_FALSE(SpectralHashing::Train(data, opts).ok());
}

TEST(SpectralHashing, ProducesRequestedCodeLength) {
  auto data = GenerateDataset(DatasetKind::kNusWide, 200);
  for (std::size_t bits : {16u, 32u, 64u}) {
    SpectralHashingOptions opts;
    opts.code_bits = bits;
    auto hash = SpectralHashing::Train(data, opts);
    ASSERT_TRUE(hash.ok());
    EXPECT_EQ((*hash)->code_bits(), bits);
    BinaryCode code = (*hash)->Hash(data.Row(0));
    EXPECT_EQ(code.size(), bits);
  }
}

TEST(SpectralHashing, PreservesLocality) {
  // The defining property: nearby feature vectors get nearby codes.
  auto data = GenerateDataset(DatasetKind::kNusWide, 400);
  SpectralHashingOptions opts;
  opts.code_bits = 32;
  auto hash = SpectralHashing::Train(data, opts).ValueOrDie();

  Rng rng(7);
  double near_dist = 0.0, far_dist = 0.0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    std::size_t i = static_cast<std::size_t>(rng.UniformInt(0, 399));
    // A small perturbation of row i vs an unrelated row.
    std::vector<double> nearby(data.Row(i).begin(), data.Row(i).end());
    for (double& v : nearby) v += rng.Gaussian(0.0, 1e-4);
    std::size_t j = static_cast<std::size_t>(rng.UniformInt(0, 399));
    BinaryCode ci = hash->Hash(data.Row(i));
    near_dist += static_cast<double>(ci.Distance(hash->Hash(nearby)));
    far_dist += static_cast<double>(ci.Distance(hash->Hash(data.Row(j))));
  }
  EXPECT_LT(near_dist / trials, 2.0);
  EXPECT_GT(far_dist / trials, near_dist / trials * 2.0);
}

TEST(SpectralHashing, DeterministicAndSerializable) {
  auto data = GenerateDataset(DatasetKind::kDbpedia, 100);
  SpectralHashingOptions opts;
  opts.code_bits = 32;
  auto hash = SpectralHashing::Train(data, opts).ValueOrDie();
  BufferWriter w;
  hash->Serialize(&w);
  BufferReader r(w.buffer());
  auto back = SpectralHashing::Deserialize(&r).ValueOrDie();
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(hash->Hash(data.Row(i)), back->Hash(data.Row(i)));
  }
}

TEST(SpectralHashing, CodesAreNotDegenerate) {
  // Bits must actually vary across the dataset (no constant code).
  auto data = GenerateDataset(DatasetKind::kFlickr, 150);
  SpectralHashingOptions opts;
  opts.code_bits = 32;
  auto hash = SpectralHashing::Train(data, opts).ValueOrDie();
  auto codes = hash->HashAll(data);
  std::size_t distinct = 0;
  for (std::size_t i = 1; i < codes.size(); ++i) {
    if (codes[i] != codes[0]) ++distinct;
  }
  EXPECT_GT(distinct, codes.size() / 4);
}

// ---------------------------------------------------------------------------
// Spectral Hashing: the kernel's codes are the textbook formula's bits
// ---------------------------------------------------------------------------

constexpr double kPi = 3.14159265358979323846;

// The Hash formula the kernel replaced, verbatim, over a model read back
// from its wire bytes, whose layout the kernel left unchanged. Counts the
// sine arguments that lie past the kernel's reduction limit or are not
// finite, so a test can show it reached the kernel's std::sin fallback.
class ReferenceSpectralHash {
 public:
  explicit ReferenceSpectralHash(const SpectralHashing& model) {
    BufferWriter w;
    model.Serialize(&w);
    BufferReader r(w.buffer());
    auto varint = [&r] {
      uint64_t v = 0;
      EXPECT_TRUE(r.GetVarint64(&v).ok());
      return v;
    };
    auto doubles = [&r](std::vector<double>* out, std::size_t n) {
      out->resize(n);
      for (double& v : *out) EXPECT_TRUE(r.GetDouble(&v).ok());
    };
    code_bits_ = varint();
    dim_ = varint();
    num_pcs_ = varint();
    doubles(&mean_, dim_);
    doubles(&projections_, num_pcs_ * dim_);
    doubles(&mn_, num_pcs_);
    doubles(&range_, num_pcs_);
    for (std::size_t b = 0; b < code_bits_; ++b) {
      dir_.push_back(static_cast<uint32_t>(varint()));
    }
    for (std::size_t b = 0; b < code_bits_; ++b) {
      mode_.push_back(static_cast<uint32_t>(varint()));
    }
    EXPECT_TRUE(r.AtEnd());
  }

  BinaryCode Hash(std::span<const double> vec) const {
    // Project onto the kept principal directions once.
    std::vector<double> proj(num_pcs_);
    for (std::size_t j = 0; j < num_pcs_; ++j) {
      double p = 0.0;
      const double* w = projections_.data() + j * dim_;
      for (std::size_t k = 0; k < dim_; ++k) p += w[k] * (vec[k] - mean_[k]);
      proj[j] = p;
    }
    BinaryCode code(code_bits_);
    for (std::size_t b = 0; b < code_bits_; ++b) {
      std::size_t j = dir_[b];
      double x = (proj[j] - mn_[j]) / range_[j];  // normalized to [0,1]
      double y = std::sin(kPi / 2.0 + mode_[b] * kPi * x);
      if (y >= 0.0) code.SetBit(b, true);
      if (!(std::fabs(kPi / 2.0 + mode_[b] * kPi * x) < 0x1p20)) {
        ++past_limit_;
      }
    }
    return code;
  }

  std::size_t past_limit() const { return past_limit_; }

 private:
  std::size_t code_bits_ = 0;
  std::size_t dim_ = 0;
  std::size_t num_pcs_ = 0;
  std::vector<double> mean_;
  std::vector<double> projections_;  // num_pcs_ x dim_, row-major
  std::vector<double> mn_;
  std::vector<double> range_;
  std::vector<uint32_t> dir_;
  std::vector<uint32_t> mode_;
  mutable std::size_t past_limit_ = 0;
};

// The first `d` coordinates of every row of `m`.
FloatMatrix FirstColumns(const FloatMatrix& m, std::size_t d) {
  FloatMatrix out(m.rows(), d);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t k = 0; k < d; ++k) out.At(i, k) = m.At(i, k);
  }
  return out;
}

// Hashes `rows` and the same rows scaled by 1e3 and 1e7 (outside the
// training box), plus copies of row 0 with NaN, infinite and signed-zero
// coordinates, through the kernel and the reference; returns how many
// codes differ.
std::size_t CountDifferingCodes(const SpectralHashing& model,
                                const ReferenceSpectralHash& ref,
                                const FloatMatrix& rows) {
  std::vector<std::vector<double>> inputs;
  for (double scale : {1.0, 1e3, 1e7}) {
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      std::vector<double> v(rows.Row(i).begin(), rows.Row(i).end());
      for (double& x : v) x *= scale;
      inputs.push_back(std::move(v));
    }
  }
  const double kSpecial[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), 0.0,
                             -0.0};
  for (double special : kSpecial) {
    for (std::size_t at : {std::size_t{0}, rows.cols() - 1}) {
      std::vector<double> v(rows.Row(0).begin(), rows.Row(0).end());
      v[at] = special;
      inputs.push_back(v);
    }
    inputs.emplace_back(rows.cols(), special);
  }
  std::size_t differing = 0;
  for (const auto& v : inputs) differing += model.Hash(v) != ref.Hash(v);
  return differing;
}

TEST(SpectralHashing, KernelMatchesReferenceFormula) {
  // Each generator's rows, cut to their first 48 coordinates: a Jacobi
  // eigensolve at the full 512-d Flickr width takes seconds per model,
  // and the cut keeps L > d (several bits per direction) in the sweep.
  constexpr std::size_t kDims = 48;
  std::size_t past_limit = 0;
  for (DatasetKind kind :
       {DatasetKind::kNusWide, DatasetKind::kFlickr, DatasetKind::kDbpedia}) {
    const FloatMatrix rows = FirstColumns(GenerateDataset(kind, 160), kDims);
    std::vector<std::size_t> train_ids(100);
    for (std::size_t i = 0; i < train_ids.size(); ++i) train_ids[i] = i;
    const FloatMatrix sample = rows.GatherRows(train_ids);
    for (std::size_t bits : {1, 8, 31, 32, 33, 64, 65, 128, 512}) {
      SCOPED_TRACE(std::string(DatasetKindName(kind)) + " L=" +
                   std::to_string(bits));
      SpectralHashingOptions opts;
      opts.code_bits = bits;
      auto model = SpectralHashing::Train(sample, opts).ValueOrDie();
      const ReferenceSpectralHash ref(*model);
      EXPECT_EQ(CountDifferingCodes(*model, ref, rows), 0u);
      past_limit += ref.past_limit();
    }
  }
  // The scaled rows take some bits past the reduction limit.
  EXPECT_GT(past_limit, 0u);
}

TEST(SpectralHashing, KernelMatchesReferenceAtFullWidth) {
  // The widest model Deserialize accepts: 512 bits over 512 kept
  // directions, so every accumulator of the kernel is in use, with
  // Flickr-width rows.
  constexpr std::size_t kBits = BinaryCode::kMaxBits;
  Rng rng(11);
  BufferWriter w;
  w.PutVarint64(kBits);
  w.PutVarint64(kBits);
  w.PutVarint64(kBits);
  for (std::size_t i = 0; i < kBits; ++i) w.PutDouble(rng.Gaussian());
  for (std::size_t i = 0; i < kBits * kBits; ++i) {
    w.PutDouble(rng.Gaussian(0.0, 1.0 / std::sqrt(static_cast<double>(kBits))));
  }
  for (std::size_t j = 0; j < kBits; ++j) w.PutDouble(-3.0);
  for (std::size_t j = 0; j < kBits; ++j) w.PutDouble(6.0);
  for (std::size_t b = 0; b < kBits; ++b) w.PutVarint64((b * 37) % kBits);
  for (std::size_t b = 0; b < kBits; ++b) w.PutVarint64(1 + b % 7);
  BufferReader r(w.buffer());
  auto model = SpectralHashing::Deserialize(&r).ValueOrDie();
  const ReferenceSpectralHash ref(*model);
  FloatMatrix rows = GenerateDataset(DatasetKind::kFlickr, 40);
  ASSERT_EQ(rows.cols(), kBits);
  EXPECT_EQ(CountDifferingCodes(*model, ref, rows), 0u);
}

TEST(SpectralHashing, SinNonNegativeMatchesSinNearMultiplesOfPi) {
  // The double nearest every multiple of pi below the reduction limit
  // (2^20), and the six on each side of it: where the sign of sin turns.
  const long kMax = static_cast<long>(0x1p20 / kPi) + 1;
  constexpr long double kPiLong = 3.141592653589793238462643383279502884L;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  for (long k = -kMax; k <= kMax; ++k) {
    double a = static_cast<double>(static_cast<long double>(k) * kPiLong);
    for (int i = 0; i < 6; ++i) a = std::nextafter(a, -kInf);
    for (int i = 0; i < 13; ++i, a = std::nextafter(a, kInf)) {
      mismatches += detail::SinNonNegative(a) != (std::sin(a) >= 0.0);
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<std::size_t>(2 * kMax + 1) * 13);
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
}

TEST(SpectralHashing, SinNonNegativeMatchesSinOnRandomAndSpecialInputs) {
  Rng rng(23);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    // Magnitudes from 2^-30 to 2^40 cover the reduction and the fallback.
    const double mag =
        std::ldexp(1.0, static_cast<int>(rng.UniformInt(-30, 40)));
    const double a = rng.UniformReal(-mag, mag);
    mismatches += detail::SinNonNegative(a) != (std::sin(a) >= 0.0);
  }
  EXPECT_EQ(mismatches, 0u);
  for (double a : {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                   -std::numeric_limits<double>::denorm_min(), 0x1p20,
                   -0x1p20, std::nextafter(0x1p20, 0.0),
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(detail::SinNonNegative(a), std::sin(a) >= 0.0) << a;
  }
}

TEST(SpectralHashing, TrainedModelAndCodesMatchPinnedBytes) {
  // Pinned from the textbook kernel: the model Train writes and the codes
  // of its training rows, byte for byte.
  auto data = GenerateDataset(DatasetKind::kNusWide, 400);
  SpectralHashingOptions opts;
  opts.code_bits = 32;
  auto hash = SpectralHashing::Train(data, opts).ValueOrDie();
  BufferWriter model;
  hash->Serialize(&model);
  EXPECT_EQ(model.buffer().size(), 59980u);
  EXPECT_EQ(storage::Crc32(model.buffer().data(), model.buffer().size()),
            0x986007f3u);
  BufferWriter codes;
  for (const auto& c : hash->HashAll(data)) c.Serialize(&codes);
  EXPECT_EQ(storage::Crc32(codes.buffer().data(), codes.buffer().size()),
            0xabae5967u);
}

// Wire bytes of a model with the given header and a body of the sizes the
// header names: dir_[0] = dir0, every other dir_[b] = b % npc.
std::vector<uint8_t> ModelBytes(uint64_t bits, uint64_t dim, uint64_t npc,
                                uint64_t dir0 = 0) {
  BufferWriter w;
  w.PutVarint64(bits);
  w.PutVarint64(dim);
  w.PutVarint64(npc);
  for (uint64_t i = 0; i < dim + npc * dim + npc; ++i) w.PutDouble(0.25);
  for (uint64_t j = 0; j < npc; ++j) w.PutDouble(1.0);  // range
  for (uint64_t b = 0; b < bits; ++b) {
    w.PutVarint64(b == 0 ? dir0 : b % std::max<uint64_t>(npc, 1));
  }
  for (uint64_t b = 0; b < bits; ++b) w.PutVarint64(1 + b % 3);
  return w.Release();
}

Status DeserializeStatus(const std::vector<uint8_t>& bytes) {
  BufferReader r(bytes);
  return SpectralHashing::Deserialize(&r).status();
}

TEST(SpectralHashing, DeserializeAcceptsWellFormedModel) {
  const auto bytes = ModelBytes(8, 4, 4);
  BufferReader r(bytes);
  auto model = SpectralHashing::Deserialize(&r).ValueOrDie();
  EXPECT_EQ(model->code_bits(), 8u);
  EXPECT_EQ(model->input_dim(), 4u);
  EXPECT_EQ(model->Hash(std::vector<double>(4, 0.5)).size(), 8u);
  // Every truncation fails cleanly.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DeserializeStatus(std::vector<uint8_t>(
                     bytes.begin(), bytes.begin() + len)).ok());
  }
}

TEST(SpectralHashing, DeserializeRejectsCodeBitsOutOfRange) {
  EXPECT_TRUE(DeserializeStatus(ModelBytes(0, 4, 0)).IsIOError());
  EXPECT_TRUE(DeserializeStatus(ModelBytes(BinaryCode::kMaxBits + 1, 4, 4))
                  .IsIOError());
  // 2^40 bits once sized dir_ and mode_ straight from the header.
  BufferWriter w;
  w.PutVarint64(uint64_t{1} << 40);
  w.PutVarint64(1);
  w.PutVarint64(1);
  EXPECT_TRUE(DeserializeStatus(w.Release()).IsIOError());
}

TEST(SpectralHashing, DeserializeRejectsZeroDim) {
  EXPECT_TRUE(DeserializeStatus(ModelBytes(8, 0, 0)).IsIOError());
}

TEST(SpectralHashing, DeserializeRejectsNumPcsOtherThanMinOfBitsAndDim) {
  EXPECT_TRUE(DeserializeStatus(ModelBytes(8, 4, 8)).IsIOError());
  EXPECT_TRUE(DeserializeStatus(ModelBytes(8, 4, 3)).IsIOError());
  EXPECT_TRUE(DeserializeStatus(ModelBytes(8, 16, 16)).IsIOError());
}

TEST(SpectralHashing, DeserializeRejectsCountsPastTheBuffer) {
  // Headers whose bodies cannot fit the bytes that follow, tested before
  // anything is sized from them.
  for (uint64_t dim : {uint64_t{1} << 40, uint64_t{1} << 61, ~uint64_t{0}}) {
    BufferWriter w;
    w.PutVarint64(8);
    w.PutVarint64(dim);
    w.PutVarint64(8);
    for (int i = 0; i < 64; ++i) w.PutDouble(1.0);
    EXPECT_TRUE(DeserializeStatus(w.Release()).IsIOError()) << dim;
  }
  auto bytes = ModelBytes(8, 4, 4);
  bytes.pop_back();
  EXPECT_TRUE(DeserializeStatus(bytes).IsIOError());
}

TEST(SpectralHashing, DeserializeRejectsDirectionPastNumPcs) {
  EXPECT_TRUE(DeserializeStatus(ModelBytes(8, 4, 4, /*dir0=*/4)).IsIOError());
  EXPECT_TRUE(
      DeserializeStatus(ModelBytes(8, 4, 4, /*dir0=*/0xFFFFFFFFu)).IsIOError());
  EXPECT_TRUE(DeserializeStatus(ModelBytes(2, 8, 2, /*dir0=*/7)).IsIOError());
}

// ---------------------------------------------------------------------------
// Z-order encoder
// ---------------------------------------------------------------------------

TEST(ZOrder, Validation) {
  EXPECT_FALSE(ZOrderEncoder::Create(0, 4, 8).ok());
  EXPECT_FALSE(ZOrderEncoder::Create(8, 65, 8).ok());
}

TEST(ZOrder, CodeLengthAndDeterminism) {
  auto enc = ZOrderEncoder::Create(10, 4, 8, /*seed=*/3).ValueOrDie();
  auto data = GenerateDataset(DatasetKind::kNusWide, 50);
  FloatMatrix proj(50, 10);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 10; ++j) proj.At(i, j) = data.At(i, j);
  }
  enc.Fit(proj);
  BinaryCode a = enc.Encode(proj.Row(0));
  BinaryCode b = enc.Encode(proj.Row(0));
  EXPECT_EQ(a.size(), 32u);
  EXPECT_EQ(a, b);
}

TEST(ZOrder, NearbyPointsShareHighOrderBits) {
  auto enc = ZOrderEncoder::Create(4, 4, 8, /*seed=*/3).ValueOrDie();
  FloatMatrix fit(100, 4);
  Rng rng(15);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 4; ++j) fit.At(i, j) = rng.UniformReal(0, 1);
  }
  enc.Fit(fit);
  // Identical points encode identically; distant points differ.
  std::vector<double> p{0.2, 0.4, 0.6, 0.8};
  std::vector<double> q{0.2, 0.4, 0.6, 0.8};
  EXPECT_EQ(enc.Encode(p), enc.Encode(q));
}

}  // namespace
}  // namespace hamming
