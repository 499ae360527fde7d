// High-level save/load for the library's persistent artifacts.
#pragma once

#include <string>

#include "index/dynamic_ha_index.h"
#include "ops/table.h"
#include "storage/file_io.h"

namespace hamming::storage {

/// \brief Saves a Dynamic HA-Index to a checksummed container file.
Status SaveIndex(const std::string& path, const DynamicHAIndex& index);

/// \brief Loads a Dynamic HA-Index previously written by SaveIndex.
Result<DynamicHAIndex> LoadIndex(const std::string& path);

/// \brief Saves a HammingTable (codes + optional features + optional
/// Spectral Hashing model).
Status SaveTable(const std::string& path, const HammingTable& table);

/// \brief Loads a HammingTable written by SaveTable.
Result<HammingTable> LoadTable(const std::string& path);

}  // namespace hamming::storage
