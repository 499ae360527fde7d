#include "storage/persist.h"

#include "common/serde.h"
#include "hashing/spectral_hashing.h"

namespace hamming::storage {

Status SaveIndex(const std::string& path, const DynamicHAIndex& index) {
  BufferWriter w;
  index.Serialize(&w);
  return WriteContainer(path, PayloadKind::kDynamicHAIndex, w.buffer());
}

Result<DynamicHAIndex> LoadIndex(const std::string& path) {
  HAMMING_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           ReadContainer(path, PayloadKind::kDynamicHAIndex));
  BufferReader r(payload);
  return DynamicHAIndex::Deserialize(&r);
}

Status SaveTable(const std::string& path, const HammingTable& table) {
  BufferWriter w;
  // Features.
  w.PutVarint64(table.has_features() ? 1 : 0);
  if (table.has_features()) {
    w.PutVarint64(table.data().rows());
    w.PutVarint64(table.data().cols());
    for (double v : table.data().data()) w.PutDouble(v);
  }
  // Codes.
  w.PutVarint64(table.codes().size());
  for (const auto& c : table.codes()) c.Serialize(&w);
  // Hash model, behind a presence flag.
  const SpectralHashing* hash = table.hash().get();
  w.PutVarint64(hash != nullptr ? 1 : 0);
  if (hash != nullptr) hash->Serialize(&w);
  return WriteContainer(path, PayloadKind::kHammingTable, w.buffer());
}

Result<HammingTable> LoadTable(const std::string& path) {
  HAMMING_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                           ReadContainer(path, PayloadKind::kHammingTable));
  BufferReader r(payload);
  uint64_t has_features;
  HAMMING_RETURN_NOT_OK(r.GetVarint64(&has_features));
  FloatMatrix data;
  if (has_features) {
    uint64_t rows, cols;
    HAMMING_RETURN_NOT_OK(r.GetVarint64(&rows));
    HAMMING_RETURN_NOT_OK(r.GetVarint64(&cols));
    data = FloatMatrix(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      auto row = data.MutableRow(i);
      for (std::size_t j = 0; j < cols; ++j) {
        HAMMING_RETURN_NOT_OK(r.GetDouble(&row[j]));
      }
    }
  }
  uint64_t num_codes;
  HAMMING_RETURN_NOT_OK(r.GetVarint64(&num_codes));
  std::vector<BinaryCode> codes(num_codes);
  for (auto& c : codes) {
    HAMMING_RETURN_NOT_OK(BinaryCode::Deserialize(&r, &c));
  }
  uint64_t has_hash;
  HAMMING_RETURN_NOT_OK(r.GetVarint64(&has_hash));
  std::shared_ptr<const SpectralHashing> hash;
  if (has_hash) {
    HAMMING_ASSIGN_OR_RETURN(hash, SpectralHashing::Deserialize(&r));
  }
  return HammingTable::FromParts(std::move(data), std::move(codes),
                                 std::move(hash));
}

}  // namespace hamming::storage
