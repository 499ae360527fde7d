// Persistence tests: container format, corruption detection, index and
// table round-trips.
#include "storage/persist.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "dataset/generators.h"
#include "hashing/spectral_hashing.h"
#include "test_util.h"

namespace hamming::storage {
namespace {

std::string TempPath(const std::string& name) {
  return std::string("/tmp/hammingdb_test_") + name;
}

class StorageTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::string Path(const std::string& name) {
    std::string p = TempPath(name);
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(StorageTest, Crc32KnownVectors) {
  // The classic check value: CRC-32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST_F(StorageTest, ContainerRoundTrip) {
  auto path = Path("container");
  std::vector<uint8_t> payload{1, 2, 3, 250, 0, 7};
  ASSERT_TRUE(WriteContainer(path, PayloadKind::kGeneric, payload).ok());
  auto back = ReadContainer(path, PayloadKind::kGeneric);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, payload);
}

TEST_F(StorageTest, EmptyPayloadSupported) {
  auto path = Path("empty");
  ASSERT_TRUE(WriteContainer(path, PayloadKind::kGeneric, {}).ok());
  auto back = ReadContainer(path, PayloadKind::kGeneric);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST_F(StorageTest, MissingFileFails) {
  EXPECT_TRUE(ReadContainer("/tmp/hammingdb_definitely_missing",
                            PayloadKind::kGeneric)
                  .status()
                  .IsIOError());
}

TEST_F(StorageTest, KindMismatchFails) {
  auto path = Path("kind");
  ASSERT_TRUE(WriteContainer(path, PayloadKind::kGeneric, {1}).ok());
  EXPECT_TRUE(ReadContainer(path, PayloadKind::kDynamicHAIndex)
                  .status()
                  .IsIOError());
}

TEST_F(StorageTest, CorruptionDetected) {
  auto path = Path("corrupt");
  std::vector<uint8_t> payload(100, 42);
  ASSERT_TRUE(WriteContainer(path, PayloadKind::kGeneric, payload).ok());
  // Flip one payload byte in the middle of the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char b = 0x13;
    f.write(&b, 1);
  }
  EXPECT_TRUE(
      ReadContainer(path, PayloadKind::kGeneric).status().IsIOError());
}

TEST_F(StorageTest, TruncationDetected) {
  auto path = Path("trunc");
  std::vector<uint8_t> payload(100, 7);
  ASSERT_TRUE(WriteContainer(path, PayloadKind::kGeneric, payload).ok());
  // Rewrite the file shorter.
  std::vector<uint8_t> bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  bytes.resize(bytes.size() - 10);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<long>(bytes.size()));
  }
  EXPECT_TRUE(
      ReadContainer(path, PayloadKind::kGeneric).status().IsIOError());
}

TEST_F(StorageTest, GarbageFileFails) {
  auto path = Path("garbage");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a container file at all, but long enough to parse";
  }
  EXPECT_TRUE(
      ReadContainer(path, PayloadKind::kGeneric).status().IsIOError());
}

TEST_F(StorageTest, IndexRoundTrip) {
  auto codes = testutil::RandomCodes(400, 32, /*seed=*/3, /*clusters=*/8);
  DynamicHAIndex index;
  ASSERT_TRUE(index.Build(codes).ok());
  auto path = Path("index");
  ASSERT_TRUE(SaveIndex(path, index).ok());
  auto back = LoadIndex(path);
  ASSERT_TRUE(back.ok()) << back.status();
  auto queries = testutil::RandomCodes(10, 32, /*seed=*/4, /*clusters=*/8);
  for (const auto& q : queries) {
    EXPECT_EQ(Sorted(*testutil::Search(*back, q, 3)),
              Sorted(*testutil::Search(index, q, 3)));
  }
}

TEST_F(StorageTest, TableRoundTripWithFeaturesAndHash) {
  FloatMatrix data = GenerateDataset(DatasetKind::kNusWide, 100);
  SpectralHashingOptions hopts;
  hopts.code_bits = 32;
  auto hash = std::shared_ptr<const SpectralHashing>(
      SpectralHashing::Train(data, hopts).ValueOrDie().release());
  auto table =
      HammingTable::FromFeatures(std::move(data), hash).ValueOrDie();
  auto path = Path("table");
  ASSERT_TRUE(SaveTable(path, table).ok());
  auto back = LoadTable(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->size(), table.size());
  EXPECT_TRUE(back->has_features());
  EXPECT_EQ(back->codes(), table.codes());
  // The reloaded hash must produce identical codes.
  auto q = table.data().Row(7);
  EXPECT_EQ(back->HashQuery(q).ValueOrDie(),
            table.HashQuery(q).ValueOrDie());
}

TEST_F(StorageTest, TableRoundTripCodesOnly) {
  auto codes = testutil::RandomCodes(50, 64);
  auto table = HammingTable::FromCodes(codes).ValueOrDie();
  auto path = Path("codes-table");
  ASSERT_TRUE(SaveTable(path, table).ok());
  auto back = LoadTable(path).ValueOrDie();
  EXPECT_EQ(back.codes(), codes);
  EXPECT_FALSE(back.has_features());
}

TEST_F(StorageTest, LoadTableDeserializeRejectsUnrunnableHashModel) {
  // Tables whose hash model Hash cannot run: a direction past num_pcs
  // (Hash would index past its projections) and 2^40 code bits (sized
  // straight from the header). Loading must fail, not crash.
  for (const uint64_t bits : {uint64_t{2}, uint64_t{1} << 40}) {
    BufferWriter w;
    w.PutVarint64(0);  // no features
    w.PutVarint64(0);  // no codes
    w.PutVarint64(1);  // a hash model: bits, dim, num_pcs
    w.PutVarint64(bits);
    w.PutVarint64(2);
    w.PutVarint64(2);
    for (int i = 0; i < 2 + 2 * 2 + 2 + 2; ++i) w.PutDouble(1.0);
    w.PutVarint64(0);  // dir_
    w.PutVarint64(0xFFFFFFFFu);
    w.PutVarint64(1);  // mode_
    w.PutVarint64(1);
    auto path = Path("bad-hash-table");
    ASSERT_TRUE(
        WriteContainer(path, PayloadKind::kHammingTable, w.buffer()).ok());
    EXPECT_TRUE(LoadTable(path).status().IsIOError()) << bits;
  }
}

// Every payload Deserialize accepts must be safe to traverse and pass the
// index's own invariant audit. Returns whether the payload loaded.
bool LoadAndTraverse(const std::vector<uint8_t>& bytes) {
  BufferReader r(bytes);
  auto idx = DynamicHAIndex::Deserialize(&r);
  if (!idx.ok()) {
    EXPECT_FALSE(idx.status().ToString().empty());
    return false;
  }
  std::vector<BinaryCode> queries = {BinaryCode(32)};
  const auto tuples = idx->ExportTuples();
  EXPECT_LE(tuples.size(), idx->size());
  if (!tuples.empty()) queries.push_back(tuples.front().second);
  for (const auto& q : queries) {
    for (std::size_t h : {0, 3, 512}) {
      auto got = testutil::SearchWithDistances(*idx, q, h);
      if (got.ok()) {
        EXPECT_LE(got->size(), idx->size());
      }
    }
  }
  const auto stats = idx->Stats();
  EXPECT_LE(stats.num_leaves, idx->size());
  EXPECT_TRUE(idx->CheckConsistency().ok()) << idx->CheckConsistency();
  return true;
}

TEST_F(StorageTest, FuzzDeserializeNeverCrashes) {
  // Random byte soup must come back as a clean error, never UB.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> junk(static_cast<std::size_t>(
        rng.UniformInt(0, 300)));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    LoadAndTraverse(junk);
  }

  // Soup rarely parses past the header, so most trials start from valid
  // payloads (leafful with deletes and buffered inserts, leafless, and a
  // two-word width) and truncate them or flip bytes in them.
  std::vector<std::vector<uint8_t>> valid;
  for (const auto& [bits, leafless] :
       {std::pair<std::size_t, bool>{32, false}, {32, true}, {65, false}}) {
    DynamicHAIndexOptions opts;
    opts.store_tuple_ids = !leafless;
    DynamicHAIndex index(opts);
    auto codes = testutil::RandomCodes(60, bits, /*seed=*/7, /*clusters=*/4);
    EXPECT_TRUE(index.Build(codes).ok());
    for (TupleId id = 0; !leafless && id < 12; id += 2) {
      EXPECT_TRUE(index.Delete(id, codes[id]).ok());
    }
    for (TupleId id = 0; id < 5; ++id) {
      EXPECT_TRUE(index.Insert(100 + id, codes[id]).ok());
    }
    BufferWriter w;
    index.Serialize(&w);
    valid.push_back(w.Release());
  }
  std::size_t loaded = 0;
  for (const auto& bytes : valid) {
    ASSERT_TRUE(LoadAndTraverse(bytes));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      LoadAndTraverse(
          std::vector<uint8_t>(bytes.begin(), bytes.begin() + len));
    }
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<uint8_t> flipped = bytes;
      const int flips = static_cast<int>(rng.UniformInt(1, 3));
      for (int f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
        flipped[at] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
      }
      loaded += LoadAndTraverse(flipped) ? 1 : 0;
    }
  }
  // Enough mutants load to reach the traversals and the audit.
  EXPECT_GT(loaded, 100u);
}

// ---------------------------------------------------------------------------
// Regressions for fuzz_spill findings (fuzz/fuzz_spill.cc). Both craft
// spill files whose headers lie about sizes; SpillSegmentCursor::Open
// must reject them *before* sizing any allocation from the lie.

namespace {

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::string MakeOneSegmentSpill(const std::string& path) {
  auto writer = SpillFileWriter::Create(path, 1, 64);
  EXPECT_TRUE(writer.ok());
  const uint8_t k[] = {'k', 'e', 'y'};
  const uint8_t v[] = {'v', 'a', 'l'};
  EXPECT_TRUE(writer.ValueOrDie()->Append(0, k, 3, v, 3).ok());
  EXPECT_TRUE(writer.ValueOrDie()->Finish().ok());
  return path;
}

}  // namespace

// Found by fuzz_spill: a flipped num_segments byte (not yet CRC-checked
// at that point in Open) used to size the header allocation, turning one
// mutated byte into a multi-gigabyte zero-filled std::vector.
TEST_F(StorageTest, SpillFuzzRegressionHugeSegmentCount) {
  const std::string path = MakeOneSegmentSpill(Path("spill_huge_segcount"));
  std::vector<uint8_t> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 16u);
  // num_segments is the fourth fixed32 (bytes 12..15); claim ~2^28
  // segments = a ~6 GiB header.
  bytes[14] = 0x00;
  bytes[15] = 0x10;
  WriteAll(path, bytes);
  auto cursor = SpillSegmentCursor::Open(path, 0);
  ASSERT_FALSE(cursor.ok());
  EXPECT_NE(cursor.status().message().find("truncated spill header"),
            std::string::npos);
}

// Hardening from the same audit: a segment index with a *recomputed*
// CRC can claim an extent far past EOF; the claimed bytes bound every
// page allocation in LoadNextPage, so Open must clamp them to the file.
TEST_F(StorageTest, SpillFuzzRegressionLyingSegmentExtent) {
  const std::string path = MakeOneSegmentSpill(Path("spill_lying_extent"));
  std::vector<uint8_t> bytes = ReadAll(path);
  const std::size_t header_bytes = 16 + 24 + 4;  // one segment + CRC
  ASSERT_GT(bytes.size(), header_bytes);
  // The segment's `bytes` field is the second fixed64 of its index entry
  // (file offset 24); claim a 1 TiB segment, then re-frame the header
  // with a valid CRC so only the extent check can catch it.
  for (int i = 0; i < 8; ++i) bytes[24 + i] = 0;
  bytes[29] = 0x01;  // 2^40
  const uint32_t crc = Crc32(bytes.data(), header_bytes - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[header_bytes - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  WriteAll(path, bytes);
  auto cursor = SpillSegmentCursor::Open(path, 0);
  ASSERT_FALSE(cursor.ok());
  EXPECT_NE(cursor.status().message().find("segment extent exceeds"),
            std::string::npos);
}

}  // namespace
}  // namespace hamming::storage
