// Fuzz harness for the shuffle serialization layer (common/serde.h) and
// the join plans' record codecs on top of it (mrjoin/common.h).
//
// Three phases per input:
//  1. Decode: the input bytes are treated as a hostile buffer and read
//     through every BufferReader getter in a rotating order. Every
//     getter must either succeed or return a Status — out-of-bounds
//     reads, varint overflow (> 10 bytes / bit 63) and overlong
//     encodings are the interesting paths.
//  2. Record codecs: the whole input is decoded as a vector record, a
//     code record, a pair block and a Spectral Hashing model. Each must
//     return a Status (a lying element count must not allocate), whatever
//     record decodes must encode back to the same record, and a model
//     that decodes must hash a row of its input_dim() values.
//  3. Round-trip: the input also picks a sequence of typed values that
//     are written with BufferWriter (with fuzz-chosen Reserve calls in
//     between) and read back; any mismatch traps.
#include <cstring>
#include <string>
#include <vector>

#include "common/serde.h"
#include "fuzz_targets.h"
#include "hashing/spectral_hashing.h"
#include "mrjoin/common.h"

namespace hamming_fuzz {
namespace {

using hamming::BufferReader;
using hamming::BufferWriter;
using hamming::JoinPair;
using hamming::Status;
namespace mrjoin = hamming::mrjoin;

void DecodePhase(const uint8_t* data, std::size_t size) {
  if (size == 0) return;
  BufferReader reader(data + 1, size - 1);
  unsigned op = data[0];
  for (int iter = 0; iter < 4096 && !reader.AtEnd(); ++iter) {
    const std::size_t before = reader.remaining();
    Status s;
    switch (op % 8) {
      case 0: {
        uint64_t v;
        s = reader.GetVarint64(&v);
        break;
      }
      case 1: {
        int64_t v;
        s = reader.GetVarint64Signed(&v);
        break;
      }
      case 2: {
        uint32_t v;
        s = reader.GetFixed32(&v);
        break;
      }
      case 3: {
        uint64_t v;
        s = reader.GetFixed64(&v);
        break;
      }
      case 4: {
        double v;
        s = reader.GetDouble(&v);
        break;
      }
      case 5: {
        std::string v;
        s = reader.GetString(&v);
        break;
      }
      case 6: {
        std::vector<uint8_t> v;
        s = reader.GetBytes(&v);
        break;
      }
      default: {
        uint8_t buf[7];
        s = reader.GetRaw(buf, 1 + op % 7);
        break;
      }
    }
    if (!s.ok()) break;
    // Every successful getter consumes at least one byte; anything else
    // would let a malformed stream spin a reader forever.
    HAMMING_FUZZ_CHECK(reader.remaining() < before);
    op = op * 1664525u + 1013904223u;  // LCG walk over the op space
  }
}

void RecordCodecPhase(const uint8_t* data, std::size_t size) {
  const std::vector<uint8_t> bytes(data, data + size);
  auto vec = mrjoin::DecodeVectorTuple(bytes);
  if (vec.ok()) HAMMING_FUZZ_CHECK(mrjoin::EncodeVectorTuple(*vec) == bytes);
  auto code = mrjoin::DecodeCodeTuple(bytes);
  if (code.ok()) {
    // A code's unused tail bits are masked on decode, so only the
    // decoded tuple, not the input, is guaranteed to round-trip.
    auto again = mrjoin::DecodeCodeTuple(mrjoin::EncodeCodeTuple(*code));
    HAMMING_FUZZ_CHECK(again.ok() && again->table == code->table &&
                       again->id == code->id && again->code == code->code);
  }
  std::vector<JoinPair> pairs;
  const Status s = mrjoin::DecodePairBlock(bytes, &pairs);
  HAMMING_FUZZ_CHECK(s.ok() == (size % 8 == 0));
  if (s.ok()) HAMMING_FUZZ_CHECK(mrjoin::EncodePairBlock(pairs) == bytes);
  BufferReader model_reader(data, size);
  auto model = hamming::SpectralHashing::Deserialize(&model_reader);
  if (model.ok()) {
    const std::vector<double> row((*model)->input_dim(), 0.5);
    HAMMING_FUZZ_CHECK((*model)->Hash(row).size() == (*model)->code_bits());
  }
}

void RoundTripPhase(const uint8_t* data, std::size_t size) {
  // Consume (op, value) pairs: 1 tag byte + 8 little-endian value bytes.
  BufferWriter writer;
  std::vector<std::pair<unsigned, uint64_t>> script;
  for (std::size_t i = 0; i + 9 <= size && script.size() < 512; i += 9) {
    uint64_t v = 0;
    std::memcpy(&v, data + i + 1, 8);
    const unsigned tag = data[i] % 7;
    // The tag byte's high bits ask for a Reserve first; reserving must
    // never change what is written.
    if (data[i] & 0x80) writer.Reserve(v % 256);
    script.emplace_back(tag, v);
    switch (tag) {
      case 0: writer.PutVarint64(v); break;
      case 1: writer.PutVarint64Signed(static_cast<int64_t>(v)); break;
      case 2: writer.PutFixed32(static_cast<uint32_t>(v)); break;
      case 3: writer.PutFixed64(v); break;
      case 4: {
        std::string s(v % 64, static_cast<char>('a' + v % 26));
        writer.PutString(s);
        break;
      }
      case 5: {
        std::vector<uint8_t> bytes(v % 64, static_cast<uint8_t>(v));
        writer.PutBytes(bytes.data(), bytes.size());
        break;
      }
      default: {
        double d;
        std::memcpy(&d, &v, sizeof(d));
        writer.PutDouble(d);
        break;
      }
    }
  }
  BufferReader reader(writer.buffer());
  for (const auto& [tag, v] : script) {
    switch (tag) {
      case 0: {
        uint64_t got;
        HAMMING_FUZZ_CHECK(reader.GetVarint64(&got).ok());
        HAMMING_FUZZ_CHECK(got == v);
        break;
      }
      case 1: {
        int64_t got;
        HAMMING_FUZZ_CHECK(reader.GetVarint64Signed(&got).ok());
        HAMMING_FUZZ_CHECK(got == static_cast<int64_t>(v));
        break;
      }
      case 2: {
        uint32_t got;
        HAMMING_FUZZ_CHECK(reader.GetFixed32(&got).ok());
        HAMMING_FUZZ_CHECK(got == static_cast<uint32_t>(v));
        break;
      }
      case 3: {
        uint64_t got;
        HAMMING_FUZZ_CHECK(reader.GetFixed64(&got).ok());
        HAMMING_FUZZ_CHECK(got == v);
        break;
      }
      case 4: {
        std::string got;
        HAMMING_FUZZ_CHECK(reader.GetString(&got).ok());
        HAMMING_FUZZ_CHECK(got ==
                           std::string(v % 64, static_cast<char>('a' + v % 26)));
        break;
      }
      case 5: {
        std::vector<uint8_t> got;
        HAMMING_FUZZ_CHECK(reader.GetBytes(&got).ok());
        HAMMING_FUZZ_CHECK(
            got == std::vector<uint8_t>(v % 64, static_cast<uint8_t>(v)));
        break;
      }
      default: {
        // Compare bit patterns: a NaN payload must survive unchanged.
        double got;
        HAMMING_FUZZ_CHECK(reader.GetDouble(&got).ok());
        uint64_t bits;
        std::memcpy(&bits, &got, sizeof(bits));
        HAMMING_FUZZ_CHECK(bits == v);
        break;
      }
    }
  }
  HAMMING_FUZZ_CHECK(reader.AtEnd());
}

}  // namespace

void RunSerdeFuzzInput(const uint8_t* data, std::size_t size) {
  DecodePhase(data, size);
  RecordCodecPhase(data, size);
  RoundTripPhase(data, size);
}

}  // namespace hamming_fuzz

#if !defined(HAMMING_FUZZ_NO_ENTRY)
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  hamming_fuzz::RunSerdeFuzzInput(data, size);
  return 0;
}
#endif
