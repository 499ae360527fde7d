// Similarity-aware relational operators in action — the paper's stated
// future work [27]: screen a batch of uploaded images against a blocklist
// with the Hamming semi-join (SimilarityIntersect), and persist the
// prepared tables for the next batch.
//
//   $ ./build/examples/content_moderation
#include <cstdio>

#include "dataset/generators.h"
#include "hashing/spectral_hashing.h"
#include "ops/operators.h"
#include "storage/persist.h"

int main() {
  using namespace hamming;

  // A blocklist of 2,000 known-bad image signatures and a batch of
  // 10,000 fresh uploads; 50 uploads are perturbed copies of blocklist
  // entries.
  const std::size_t kBlocklist = 2000;
  const std::size_t kUploads = 10000;
  const std::size_t kPlanted = 50;
  std::printf("preparing blocklist (%zu) and upload batch (%zu, %zu "
              "planted near-duplicates)...\n",
              kBlocklist, kUploads, kPlanted);
  GeneratorOptions gopts;
  FloatMatrix blocklist = GenerateDataset(DatasetKind::kNusWide, kBlocklist,
                                          gopts);
  gopts.seed = 777;
  FloatMatrix uploads = GenerateDataset(DatasetKind::kNusWide, kUploads,
                                        gopts);
  Rng rng(5);
  for (std::size_t p = 0; p < kPlanted; ++p) {
    std::size_t src = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kBlocklist) - 1));
    auto dst = uploads.MutableRow(p * (kUploads / kPlanted));
    auto ref = blocklist.Row(src);
    for (std::size_t j = 0; j < dst.size(); ++j) {
      dst[j] = ref[j] + rng.Gaussian(0.0, 1e-3);
    }
  }

  // One shared hash, trained on the blocklist.
  SpectralHashingOptions hopts;
  hopts.code_bits = 64;
  auto hash = std::shared_ptr<const SpectralHashing>(
      SpectralHashing::Train(blocklist, hopts).ValueOrDie().release());
  auto block_table =
      HammingTable::FromFeatures(std::move(blocklist), hash).ValueOrDie();
  auto upload_table =
      HammingTable::FromFeatures(std::move(uploads), hash).ValueOrDie();

  // Semi-join: which uploads have a blocklisted near-duplicate?
  auto flagged =
      ops::SimilarityIntersect(upload_table, block_table, /*h=*/3, {})
          .ValueOrDie();
  auto clean =
      ops::SimilarityDifference(upload_table, block_table, /*h=*/3, {})
          .ValueOrDie();
  std::printf("\nflagged %zu uploads, passed %zu\n", flagged.size(),
              clean.size());
  std::size_t planted_hits = 0;
  for (TupleId id : flagged) {
    if (id % (kUploads / kPlanted) == 0 && id / (kUploads / kPlanted) <
        kPlanted) {
      ++planted_hits;
    }
  }
  std::printf("planted near-duplicates caught: %zu / %zu\n", planted_hits,
              kPlanted);

  // Persist the blocklist table so tomorrow's batch reuses it.
  const char* path = "/tmp/hammingdb_blocklist.tbl";
  if (Status st = storage::SaveTable(path, block_table); !st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto reloaded = storage::LoadTable(path).ValueOrDie();
  std::printf("blocklist persisted to %s and reloaded (%zu entries, "
              "hash %s)\n",
              path, reloaded.size(),
              reloaded.hash() ? "restored" : "missing");
  std::remove(path);
  return planted_hits >= kPlanted * 9 / 10 ? 0 : 1;
}
