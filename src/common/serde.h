// Binary serialization used by the MapReduce runtime.
//
// Every record that crosses the map->reduce shuffle boundary is encoded
// through this layer, so the byte counts the runtime reports as "shuffle
// cost" reflect real serialized sizes (varint-compressed integers, length-
// prefixed strings), matching the role Hadoop's Writable layer plays in the
// paper's cluster.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace hamming {

/// \brief Loads a little-endian fixed32 from p[0..4).
inline uint32_t DecodeFixed32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

/// \brief Bytes PutVarint64(v) appends (1..10).
inline std::size_t VarintLength(uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// \brief Appends primitive values to a growable byte buffer.
class BufferWriter {
 public:
  BufferWriter() = default;

  /// \brief Makes room for `n` more bytes, so a writer that knows its
  /// record's size allocates once.
  void Reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  /// \brief Appends a little-endian fixed-width integer through one
  /// resize.
  void PutFixed32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutFixed64(uint64_t v) { PutLittleEndian(v, 8); }
  /// \brief Appends a LEB128 varint.
  void PutVarint64(uint64_t v);
  /// \brief Varint-encodes a signed value with zigzag.
  void PutVarint64Signed(int64_t v);
  /// \brief Appends an IEEE-754 double (8 bytes).
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed64(bits);
  }
  /// \brief Appends length-prefixed bytes.
  void PutBytes(const void* data, std::size_t len);
  /// \brief Appends a length-prefixed string.
  void PutString(const std::string& s);
  /// \brief Appends raw bytes with no length prefix.
  void PutRaw(const void* data, std::size_t len);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  void PutLittleEndian(uint64_t v, std::size_t width) {
    const std::size_t at = buf_.size();
    buf_.resize(at + width);
    for (std::size_t i = 0; i < width; ++i) {
      buf_[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  std::vector<uint8_t> buf_;
};

/// \brief Reads primitive values back out of a byte buffer.
///
/// All getters return a Status so malformed buffers surface as IOError
/// instead of undefined behaviour.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetVarint64(uint64_t* out);
  Status GetVarint64Signed(int64_t* out);
  Status GetDouble(double* out);
  Status GetString(std::string* out);
  Status GetBytes(std::vector<uint8_t>* out);
  Status GetRaw(void* out, std::size_t len);

  std::size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace hamming
