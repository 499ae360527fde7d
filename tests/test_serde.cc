#include "common/serde.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"

namespace hamming {
namespace {

TEST(Serde, FixedWidthRoundTrip) {
  BufferWriter w;
  w.PutFixed32(0xdeadbeef);
  w.PutFixed64(0x0123456789abcdefull);
  BufferReader r(w.buffer());
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(r.GetFixed32(&a).ok());
  ASSERT_TRUE(r.GetFixed64(&b).ok());
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serde, VarintBoundaries) {
  BufferWriter w;
  const uint64_t values[] = {0, 1, 127, 128, 16383, 16384,
                             0xffffffffull, ~0ull};
  for (uint64_t v : values) w.PutVarint64(v);
  BufferReader r(w.buffer());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(r.GetVarint64(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(Serde, VarintSizes) {
  BufferWriter w;
  w.PutVarint64(127);
  EXPECT_EQ(w.size(), 1u);
  w.Clear();
  w.PutVarint64(128);
  EXPECT_EQ(w.size(), 2u);
}

TEST(Serde, VarintLengthMatchesWriter) {
  const uint64_t values[] = {0,           1,          127,
                             128,         16383,      16384,
                             0xffffffffull, 1ull << 40, ~0ull};
  for (uint64_t v : values) {
    BufferWriter w;
    w.PutVarint64(v);
    EXPECT_EQ(VarintLength(v), w.size()) << v;
  }
}

// The per-byte push_back loop the fixed-width writers used before they
// wrote through one resize; their bytes must not change.
void AppendByteLoop(uint64_t v, int width, std::vector<uint8_t>* out) {
  for (int i = 0; i < width; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

TEST(Serde, FixedWidthGoldenBytes) {
  const uint64_t ints[] = {0, 1, 0xff, 0xdeadbeefull, 0x0102030405060708ull,
                           ~0ull};
  const double doubles[] = {0.0, -0.0, 1.5, -3.25e108,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  for (const bool reserve : {false, true}) {
    SCOPED_TRACE(reserve ? "reserved" : "unreserved");
    BufferWriter w;
    // The reserved writer under-reserves on purpose: it must still grow.
    if (reserve) w.Reserve(16);
    std::vector<uint8_t> want;
    for (uint64_t v : ints) {
      w.PutFixed32(static_cast<uint32_t>(v));
      AppendByteLoop(static_cast<uint32_t>(v), 4, &want);
      w.PutFixed64(v);
      AppendByteLoop(v, 8, &want);
    }
    if (reserve) w.Reserve(8 * std::size(doubles));
    for (double d : doubles) {
      w.PutDouble(d);
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      AppendByteLoop(bits, 8, &want);
    }
    EXPECT_EQ(w.buffer(), want);
  }

  // Little-endian on every host.
  BufferWriter w;
  w.PutFixed32(0xdeadbeef);
  w.PutDouble(1.5);
  EXPECT_EQ(w.buffer(),
            (std::vector<uint8_t>{0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0x00,
                                  0x00, 0x00, 0x00, 0xf8, 0x3f}));
}

TEST(Serde, ReserveDoesNotWrite) {
  BufferWriter w;
  w.PutFixed32(7);
  w.Reserve(100);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_GE(w.buffer().capacity(), 104u);
  w.PutVarint64(300);
  EXPECT_EQ(w.buffer(), (std::vector<uint8_t>{7, 0, 0, 0, 0xac, 0x02}));
}

TEST(Serde, SignedZigzag) {
  BufferWriter w;
  const int64_t values[] = {0, -1, 1, -64, 63, -1000000,
                            INT64_MIN, INT64_MAX};
  for (int64_t v : values) w.PutVarint64Signed(v);
  BufferReader r(w.buffer());
  for (int64_t v : values) {
    int64_t got;
    ASSERT_TRUE(r.GetVarint64Signed(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(Serde, DoubleRoundTrip) {
  BufferWriter w;
  const double values[] = {0.0, -0.0, 1.5, -3.25e108, 1e-300};
  for (double v : values) w.PutDouble(v);
  BufferReader r(w.buffer());
  for (double v : values) {
    double got;
    ASSERT_TRUE(r.GetDouble(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(Serde, StringAndBytes) {
  BufferWriter w;
  w.PutString("hello");
  w.PutString("");
  std::vector<uint8_t> blob{1, 2, 3, 255};
  w.PutBytes(blob.data(), blob.size());
  BufferReader r(w.buffer());
  std::string s1, s2;
  std::vector<uint8_t> back;
  ASSERT_TRUE(r.GetString(&s1).ok());
  ASSERT_TRUE(r.GetString(&s2).ok());
  ASSERT_TRUE(r.GetBytes(&back).ok());
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(back, blob);
}

TEST(Serde, TruncatedReadsFailCleanly) {
  BufferWriter w;
  w.PutFixed64(42);
  BufferReader r(w.buffer().data(), 3);
  uint64_t v;
  EXPECT_TRUE(r.GetFixed64(&v).IsIOError());

  BufferWriter w2;
  w2.PutString("long string payload");
  BufferReader r2(w2.buffer().data(), 4);
  std::string s;
  EXPECT_TRUE(r2.GetString(&s).IsIOError());
}

TEST(Serde, UnterminatedVarintFails) {
  std::vector<uint8_t> bad{0x80, 0x80, 0x80};
  BufferReader r(bad);
  uint64_t v;
  EXPECT_TRUE(r.GetVarint64(&v).IsIOError());
}

TEST(Serde, OverlongVarintFails) {
  std::vector<uint8_t> bad(11, 0x80);
  bad.push_back(0x01);
  BufferReader r(bad);
  uint64_t v;
  EXPECT_TRUE(r.GetVarint64(&v).IsIOError());
}

TEST(Serde, CanonicalMaxVarintDecodes) {
  // ~0ull is nine 0xff continuation bytes and a final 0x01: the largest
  // canonical encoding, whose 10th byte carries exactly one payload bit.
  std::vector<uint8_t> max_enc(9, 0xff);
  max_enc.push_back(0x01);
  BufferReader r(max_enc);
  uint64_t v = 0;
  ASSERT_TRUE(r.GetVarint64(&v).ok());
  EXPECT_EQ(v, ~0ull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serde, TenthByteOverflowBitsRejected) {
  // A 10th byte with any payload bit above bit 0 encodes value bits
  // beyond bit 63; the old decoder silently dropped them and returned a
  // wrong value. Every such terminator must be an IOError.
  for (uint8_t last : {0x02, 0x03, 0x40, 0x7e, 0x7f}) {
    std::vector<uint8_t> bad(9, 0x80);  // payload bits all zero
    bad.push_back(last);
    BufferReader r(bad);
    uint64_t v = 0;
    EXPECT_TRUE(r.GetVarint64(&v).IsIOError()) << "last byte " << int(last);
  }
  // Same with nonzero low payload: the canonical-max prefix plus a
  // 10th byte of 0x7f would decode to ~0ull if the high bits were
  // dropped — indistinguishable from the canonical encoding's value.
  std::vector<uint8_t> bad(9, 0xff);
  bad.push_back(0x7f);
  BufferReader r(bad);
  uint64_t v = 0;
  EXPECT_TRUE(r.GetVarint64(&v).IsIOError());
}

TEST(Serde, NonCanonicalTrailingZeroRejected) {
  // [0x80, 0x00] is an overlong encoding of 0 and [0xff, 0x00] one of
  // 0x7f; the writer emits single bytes for both, so a trailing zero
  // continuation only ever appears in corrupt or adversarial buffers.
  for (auto bad : {std::vector<uint8_t>{0x80, 0x00},
                   std::vector<uint8_t>{0xff, 0x00},
                   std::vector<uint8_t>{0x80, 0x80, 0x00}}) {
    BufferReader r(bad);
    uint64_t v = 0;
    EXPECT_TRUE(r.GetVarint64(&v).IsIOError());
  }
  // The plain single-byte zero stays valid.
  std::vector<uint8_t> zero{0x00};
  BufferReader r(zero);
  uint64_t v = 1;
  ASSERT_TRUE(r.GetVarint64(&v).ok());
  EXPECT_EQ(v, 0u);
}

TEST(Serde, RandomizedMixedRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    BufferWriter w;
    std::vector<uint64_t> ints;
    std::vector<double> doubles;
    for (int i = 0; i < 50; ++i) {
      uint64_t v = rng.NextWord() >> (rng.UniformInt(0, 63));
      double d = rng.Gaussian();
      ints.push_back(v);
      doubles.push_back(d);
      w.PutVarint64(v);
      w.PutDouble(d);
    }
    BufferReader r(w.buffer());
    for (int i = 0; i < 50; ++i) {
      uint64_t v;
      double d;
      ASSERT_TRUE(r.GetVarint64(&v).ok());
      ASSERT_TRUE(r.GetDouble(&d).ok());
      EXPECT_EQ(v, ints[i]);
      EXPECT_EQ(d, doubles[i]);
    }
    EXPECT_TRUE(r.AtEnd());
  }
}

}  // namespace
}  // namespace hamming
