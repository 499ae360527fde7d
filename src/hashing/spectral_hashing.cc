#include "hashing/spectral_hashing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "hashing/eigen.h"

namespace hamming {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

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
    auto pc = eig.eigenvectors.Row(j);
    std::copy(pc.begin(), pc.end(), model->projections_.begin() + j * d);
  }

  // Fit a uniform box on the projected sample.
  std::vector<double> mn(npc, 1e300), mx(npc, -1e300);
  for (std::size_t i = 0; i < sample.rows(); ++i) {
    auto row = sample.Row(i);
    for (std::size_t j = 0; j < npc; ++j) {
      double p = 0.0;
      const double* w = model->projections_.data() + j * d;
      for (std::size_t k = 0; k < d; ++k) p += w[k] * (row[k] - model->mean_[k]);
      mn[j] = std::min(mn[j], p);
      mx[j] = std::max(mx[j], p);
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

BinaryCode SpectralHashing::Hash(std::span<const double> vec) const {
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
  for (double v : projections_) w->PutDouble(v);
  for (double v : mn_) w->PutDouble(v);
  for (double v : range_) w->PutDouble(v);
  for (uint32_t v : dir_) w->PutVarint64(v);
  for (uint32_t v : mode_) w->PutVarint64(v);
}

Result<std::unique_ptr<SpectralHashing>> SpectralHashing::Deserialize(
    BufferReader* r) {
  auto model = std::unique_ptr<SpectralHashing>(new SpectralHashing());
  uint64_t bits, dim, npc;
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&bits));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&dim));
  HAMMING_RETURN_NOT_OK(r->GetVarint64(&npc));
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
  for (double& v : model->projections_) HAMMING_RETURN_NOT_OK(r->GetDouble(&v));
  for (double& v : model->mn_) HAMMING_RETURN_NOT_OK(r->GetDouble(&v));
  for (double& v : model->range_) HAMMING_RETURN_NOT_OK(r->GetDouble(&v));
  for (uint32_t& v : model->dir_) {
    uint64_t tmp;
    HAMMING_RETURN_NOT_OK(r->GetVarint64(&tmp));
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
