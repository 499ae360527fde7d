#include "common/serde.h"

namespace hamming {

void BufferWriter::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void BufferWriter::PutVarint64Signed(int64_t v) {
  uint64_t zz = (static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63);
  PutVarint64(zz);
}

void BufferWriter::PutBytes(const void* data, std::size_t len) {
  PutVarint64(len);
  PutRaw(data, len);
}

void BufferWriter::PutString(const std::string& s) {
  PutBytes(s.data(), s.size());
}

void BufferWriter::PutRaw(const void* data, std::size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

Status BufferReader::GetFixed32(uint32_t* out) {
  if (remaining() < 4) return Status::IOError("truncated fixed32");
  *out = DecodeFixed32(data_ + pos_);
  pos_ += 4;
  return Status::OK();
}

Status BufferReader::GetFixed64(uint64_t* out) {
  if (remaining() < 8) return Status::IOError("truncated fixed64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  *out = v;
  return Status::OK();
}

Status BufferReader::GetVarint64(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (pos_ < len_) {
    uint8_t b = data_[pos_++];
    if (shift >= 64) return Status::IOError("varint overflow");
    // The 10th byte (shift 63) contributes only its low bit; any higher
    // payload bit would be shifted past bit 63 and silently dropped, so a
    // buffer carrying one decodes to the wrong value unless rejected here.
    if (shift == 63 && (b & 0x7e) != 0) {
      return Status::IOError("varint overflow");
    }
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // A terminating zero byte after a continuation is an overlong
      // (non-canonical) encoding; the writer never produces one, so
      // treat it as corruption rather than decode it.
      if (b == 0 && shift > 0) return Status::IOError("overlong varint");
      *out = v;
      return Status::OK();
    }
    shift += 7;
  }
  return Status::IOError("truncated varint");
}

Status BufferReader::GetVarint64Signed(int64_t* out) {
  uint64_t zz;
  HAMMING_RETURN_NOT_OK(GetVarint64(&zz));
  *out = static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  return Status::OK();
}

Status BufferReader::GetDouble(double* out) {
  uint64_t bits;
  HAMMING_RETURN_NOT_OK(GetFixed64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status BufferReader::GetString(std::string* out) {
  uint64_t len;
  HAMMING_RETURN_NOT_OK(GetVarint64(&len));
  if (remaining() < len) return Status::IOError("truncated string");
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status BufferReader::GetBytes(std::vector<uint8_t>* out) {
  uint64_t len;
  HAMMING_RETURN_NOT_OK(GetVarint64(&len));
  if (remaining() < len) return Status::IOError("truncated bytes");
  out->assign(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return Status::OK();
}

Status BufferReader::GetRaw(void* out, std::size_t len) {
  if (remaining() < len) return Status::IOError("truncated raw read");
  // Zero-length reads skip the memcpy: callers legitimately pass the
  // data() of an empty container, which may be null, and memcpy's
  // arguments are declared nonnull even when the count is zero.
  if (len == 0) return Status::OK();
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
  return Status::OK();
}

}  // namespace hamming
