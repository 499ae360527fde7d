#include <gtest/gtest.h>

#include <cmath>

#include "dataset/generators.h"
#include "hashing/eigen.h"
#include "hashing/spectral_hashing.h"
#include "hashing/zorder.h"

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
