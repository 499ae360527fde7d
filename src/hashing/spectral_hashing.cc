#include "hashing/spectral_hashing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "hashing/eigen.h"

namespace hamming {

namespace {

constexpr double kPi = 3.14159265358979323846;

// pi as three parts of at most 33 bits (fdlibm's pi/2 split, doubled), so
// k * kPiN is exact for |k| < 2^20; the tail pi - (kPi1 + kPi2 + kPi3) is
// below 2^-102.
constexpr double kPi1 = 0x1.921fb544p+1;
constexpr double kPi2 = 0x1.0b4611a6p-33;
constexpr double kPi3 = 0x1.3198a2ep-68;
constexpr double kInvPi = 0x1.45f306dc9c883p-2;
// Adding and subtracting 1.5 * 2^52 rounds a double below 2^51 in
// magnitude to the nearest integer.
constexpr double kRoundMagic = 0x1.8p52;
// |a| below this keeps |k| = |round(a / pi)| < 2^19.
constexpr double kReductionLimit = 0x1p20;

}  // namespace

namespace detail {

bool SinNonNegative(double a) {
  if (!(std::fabs(a) < kReductionLimit)) return std::sin(a) >= 0.0;
  // sin(a) = (-1)^k sin(r) for r = a - k*pi, and |r| < pi, so sin(a) has
  // r's sign, flipped for odd k. Rounding can lose the sign only of a
  // small r. Then k * kPi1 is within a factor of two of a, so a - k * kPi1
  // is exact (Sterbenz); its difference with the exact k * kPi2 is a
  // multiple of 2^-65 below 2^-12, so exact too; and the last subtraction
  // rounds, keeping its sign, a value that differs from r by k times the
  // tail, under 2^-83, while no double below 2^20 lies within 2^-59 of a
  // nonzero multiple of pi.
  const double k = (a * kInvPi + kRoundMagic) - kRoundMagic;
  const double r = ((a - k * kPi1) - k * kPi2) - k * kPi3;
  const unsigned odd = static_cast<unsigned>(static_cast<int64_t>(k) & 1);
  const unsigned nonneg = r >= 0.0;
  const unsigned nonpos = r <= 0.0;
  return ((nonneg & (odd ^ 1u)) | (nonpos & odd)) != 0;
}

}  // namespace detail

Result<std::unique_ptr<SpectralHashing>> SpectralHashing::Train(
    const FloatMatrix& sample, const SpectralHashingOptions& opts) {
  if (sample.rows() < 2) {
    return Status::InvalidArgument(
        "SpectralHashing::Train needs at least 2 sample rows");
  }
  if (opts.code_bits == 0 || opts.code_bits > BinaryCode::kMaxBits) {
    return Status::InvalidArgument("invalid code_bits");
  }
  const std::size_t d = sample.cols();
  const std::size_t L = opts.code_bits;

  auto model = std::unique_ptr<SpectralHashing>(new SpectralHashing());
  model->code_bits_ = L;
  model->dim_ = d;
  model->mean_ = sample.ColumnMeans();

  // PCA: keep min(L, d) top principal directions.
  FloatMatrix cov = CovarianceMatrix(sample);
  EigenDecomposition eig;
  HAMMING_RETURN_NOT_OK(JacobiEigenSymmetric(cov, &eig));
  const std::size_t npc = std::min(L, d);
  model->num_pcs_ = npc;
  model->projections_.resize(npc * d);
  for (std::size_t j = 0; j < npc; ++j) {
    for (std::size_t k = 0; k < d; ++k) {
      model->projections_[k * npc + j] = eig.eigenvectors.At(j, k);
    }
  }

  // Fit a uniform box on the projected sample.
  std::vector<double> mn(npc, 1e300), mx(npc, -1e300), p(npc);
  for (std::size_t i = 0; i < sample.rows(); ++i) {
    model->Project(sample.Row(i), p.data());
    for (std::size_t j = 0; j < npc; ++j) {
      mn[j] = std::min(mn[j], p[j]);
      mx[j] = std::max(mx[j], p[j]);
    }
  }
  model->mn_ = mn;
  model->range_.resize(npc);
  for (std::size_t j = 0; j < npc; ++j) {
    model->range_[j] = std::max(mx[j] - mn[j], 1e-12);
  }

  // Enumerate analytical eigenfunctions: mode k on direction j has
  // frequency omega = k*pi/range_j; the Laplacian eigenvalue grows with
  // omega, so pick the L smallest-frequency modes overall.
  std::size_t max_modes = opts.max_modes_per_direction
                              ? opts.max_modes_per_direction
                              : L + 1;
  struct Mode {
    double omega;
    uint32_t dir;
    uint32_t mode;
  };
  std::vector<Mode> modes;
  modes.reserve(npc * max_modes);
  for (std::size_t j = 0; j < npc; ++j) {
    for (std::size_t k = 1; k <= max_modes; ++k) {
      modes.push_back({static_cast<double>(k) * kPi / model->range_[j],
                       static_cast<uint32_t>(j), static_cast<uint32_t>(k)});
    }
  }
  std::sort(modes.begin(), modes.end(), [](const Mode& a, const Mode& b) {
    if (a.omega != b.omega) return a.omega < b.omega;
    if (a.dir != b.dir) return a.dir < b.dir;
    return a.mode < b.mode;
  });
  if (modes.size() < L) {
    return Status::InvalidArgument("not enough eigenfunction modes");
  }
  model->dir_.resize(L);
  model->mode_.resize(L);
  for (std::size_t b = 0; b < L; ++b) {
    model->dir_[b] = modes[b].dir;
    model->mode_[b] = modes[b].mode;
  }
  return model;
}

void SpectralHashing::Project(std::span<const double> vec,
                              double* out) const {
  const std::size_t npc = num_pcs_;
  std::fill(out, out + npc, 0.0);
  const double* w = projections_.data();
  std::size_t k = 0;
  // Four coordinates per pass over the accumulators, added left to right,
  // so each out[j] still sums its terms in k order.
  for (; k + 4 <= dim_; k += 4, w += 4 * npc) {
    const double c0 = vec[k] - mean_[k];
    const double c1 = vec[k + 1] - mean_[k + 1];
    const double c2 = vec[k + 2] - mean_[k + 2];
    const double c3 = vec[k + 3] - mean_[k + 3];
    for (std::size_t j = 0; j < npc; ++j) {
      out[j] = out[j] + w[j] * c0 + w[npc + j] * c1 + w[2 * npc + j] * c2 +
               w[3 * npc + j] * c3;
    }
  }
  for (; k < dim_; ++k, w += npc) {
    const double c = vec[k] - mean_[k];
    for (std::size_t j = 0; j < npc; ++j) out[j] += w[j] * c;
  }
}

BinaryCode SpectralHashing::Hash(std::span<const double> vec) const {
  // Project writes x[0, num_pcs_), and every dir_[b] < num_pcs_ <=
  // kMaxBits (Train builds it so, Deserialize checks it).
  double x[BinaryCode::kMaxBits];
  Project(vec, x);
  for (std::size_t j = 0; j < num_pcs_; ++j) {
    x[j] = (x[j] - mn_[j]) / range_[j];  // normalized to [0,1]
  }
  BinaryCode code(code_bits_);
  auto& words = code.mutable_words();
  for (std::size_t b = 0; b < code_bits_; ++b) {
    const double a =
        kPi / 2.0 + static_cast<double>(mode_[b]) * kPi * x[dir_[b]];
    words[b >> 6] |= static_cast<uint64_t>(detail::SinNonNegative(a))
                     << (63 - (b & 63));
  }
  return code;
}

std::vector<BinaryCode> SpectralHashing::HashAll(
    const FloatMatrix& data) const {
  std::vector<BinaryCode> out;
  out.reserve(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    out.push_back(Hash(data.Row(i)));
  }
  return out;
}

void SpectralHashing::Serialize(BufferWriter* w) const {
  w->PutVarint64(code_bits_);
  w->PutVarint64(dim_);
  w->PutVarint64(num_pcs_);
  for (double v : mean_) w->PutDouble(v);
  for (std::size_t j = 0; j < num_pcs_; ++j) {
    for (std::size_t k = 0; k < dim_; ++k) {
      w->PutDouble(projections_[k * num_pcs_ + j]);
    }
  }
  for (double v : mn_) w->PutDouble(v);
  for (double v : range_) w->PutDouble(v);
  for (uint32_t v : dir_) w->PutVarint64(v);
  for (uint32_t v : mode_) w->PutVarint64(v);
}

Result<std::unique_ptr<SpectralHashing>> SpectralHashing::Deserialize(
    BufferReader* r) {
  uint64_t bits, dim, npc;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&bits));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&dim));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&npc));
  if (bits == 0 || bits > BinaryCode::kMaxBits) {
    return Status::IOError("spectral hash model: code_bits out of range");
  }
  if (dim == 0) return Status::IOError("spectral hash model: zero dim");
  if (npc != std::min(bits, dim)) {
    return Status::IOError("spectral hash model: num_pcs != min(bits, dim)");
  }
  // dim + npc * dim + 2 * npc doubles, then 2 * bits varints of at least
  // a byte each. The first test bounds dim, so the sum cannot overflow.
  if (dim > r->remaining() / (8 * (npc + 1)) ||
      8 * (dim * (npc + 1) + 2 * npc) + 2 * bits > r->remaining()) {
    return Status::IOError("spectral hash model: counts exceed the buffer");
  }
  auto model = std::unique_ptr<SpectralHashing>(new SpectralHashing());
  model->code_bits_ = bits;
  model->dim_ = dim;
  model->num_pcs_ = npc;
  model->mean_.resize(dim);
  model->projections_.resize(npc * dim);
  model->mn_.resize(npc);
  model->range_.resize(npc);
  model->dir_.resize(bits);
  model->mode_.resize(bits);
  for (double& v : model->mean_) HAMMING_RETURN_NOT_OK(r->GetDouble(&v));
  for (std::size_t j = 0; j < npc; ++j) {
    for (std::size_t k = 0; k < dim; ++k) {
      HAMMING_RETURN_NOT_OK(r->GetDouble(&model->projections_[k * npc + j]));
    }
  }
  for (double& v : model->mn_) HAMMING_RETURN_NOT_OK(r->GetDouble(&v));
  for (double& v : model->range_) HAMMING_RETURN_NOT_OK(r->GetDouble(&v));
  for (uint32_t& v : model->dir_) {
    uint64_t tmp;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&tmp));
    if (tmp >= npc) {
      return Status::IOError("spectral hash model: direction out of range");
    }
    v = static_cast<uint32_t>(tmp);
  }
  for (uint32_t& v : model->mode_) {
    uint64_t tmp;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&tmp));
    v = static_cast<uint32_t>(tmp);
  }
  return model;
}

}  // namespace hamming
