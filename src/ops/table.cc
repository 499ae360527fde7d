#include "ops/table.h"

namespace hamming {

Result<HammingTable> HammingTable::FromFeatures(
    FloatMatrix data, std::shared_ptr<const SpectralHashing> hash) {
  if (hash == nullptr) {
    return Status::InvalidArgument("hash must not be null");
  }
  if (data.cols() != hash->input_dim()) {
    return Status::InvalidArgument(
        "data dimensionality does not match hash input_dim");
  }
  HammingTable t;
  t.codes_ = hash->HashAll(data);
  t.data_ = std::move(data);
  t.hash_ = std::move(hash);
  return t;
}

Result<HammingTable> HammingTable::FromCodes(std::vector<BinaryCode> codes) {
  for (const auto& c : codes) {
    if (c.size() != codes[0].size()) {
      return Status::InvalidArgument("codes of mixed lengths");
    }
  }
  HammingTable t;
  t.codes_ = std::move(codes);
  return t;
}

Result<HammingTable> HammingTable::FromParts(
    FloatMatrix data, std::vector<BinaryCode> codes,
    std::shared_ptr<const SpectralHashing> hash) {
  if (!data.empty() && data.rows() != codes.size()) {
    return Status::InvalidArgument("row count does not match code count");
  }
  for (const auto& c : codes) {
    if (c.size() != codes[0].size()) {
      return Status::InvalidArgument("codes of mixed lengths");
    }
  }
  HammingTable t;
  t.data_ = std::move(data);
  t.codes_ = std::move(codes);
  t.hash_ = std::move(hash);
  return t;
}

Result<BinaryCode> HammingTable::HashQuery(
    std::span<const double> vec) const {
  if (hash_ == nullptr) {
    return Status::InvalidArgument("table has no hash function");
  }
  if (vec.size() != hash_->input_dim()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  return hash_->Hash(vec);
}

}  // namespace hamming
