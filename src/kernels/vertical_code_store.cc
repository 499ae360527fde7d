#include "kernels/vertical_code_store.h"

#include <algorithm>
#include <bit>

#include "kernels/code_store.h"

namespace hamming::kernels {
namespace {

// In-place 64x64 bit-matrix anti-transpose (Hacker's Delight 7-3): on
// return, bit j of m[t] equals the former bit (63-t) of m[63-j] — the
// classic routine transposes about the anti-diagonal when rows and bits
// are both numbered LSB-first. Feeding rows in reversed order therefore
// yields out[t] bit j = in[j] bit (63-t), i.e. word bit 63-t of code j —
// exactly code bit 64w+t under BinaryCode's MSB-first convention, so the
// plane index is simply p = 64w + t. The routine is an involution, which
// IsTransposeOf exploits to reconstruct the original lane words.
void Transpose64(uint64_t m[64]) {
  std::size_t j = 32;
  uint64_t mask = 0x00000000ffffffffull;
  while (j != 0) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const uint64_t t = (m[k] ^ (m[k + j] >> j)) & mask;
      m[k] ^= t;
      m[k + j] ^= t << j;
    }
    j >>= 1;
    mask ^= mask << j;
  }
}

// Code bits held by word w of a `bits`-bit code (MSB-first: code bit
// 64w+t is word bit 63-t).
uint64_t WordMask(std::size_t bits, std::size_t w) {
  const std::size_t held = bits - 64 * w;
  return held >= 64 ? ~0ull : ~0ull << (64 - held);
}

}  // namespace

void VerticalCodeStore::Reset(std::size_t bits) {
  bits_ = bits;
  size_ = 0;
  blocks_ = 0;
  data_.clear();
  summary_.clear();
}

void VerticalCodeStore::EnsureBlocks(std::size_t nblocks) {
  const std::size_t row_words = bits_ * kWordsPerPlane;
  const std::size_t alloc = row_words == 0 ? 0 : data_.size() / row_words;
  if (nblocks > alloc) {
    // Doubling growth: a block append is pure memory extension, no
    // relayout of existing planes.
    const std::size_t grown = std::max<std::size_t>(nblocks, alloc * 2);
    data_.resize(grown * row_words, 0);
    summary_.resize(grown * SummaryWords(), 0);
  }
  blocks_ = std::max(blocks_, nblocks);
}

bool VerticalCodeStore::GetRawBit(std::size_t slot, std::size_t plane) const {
  const std::size_t lane = slot % kBlockCodes;
  const uint64_t* row =
      BlockPlanes(slot / kBlockCodes) + plane * kWordsPerPlane;
  return (row[lane >> 6] >> (lane & 63)) & 1;
}

void VerticalCodeStore::SetRawBit(std::size_t slot, std::size_t plane,
                                  bool value) {
  const std::size_t lane = slot % kBlockCodes;
  uint64_t* row =
      MutableBlockPlanes(slot / kBlockCodes) + plane * kWordsPerPlane;
  const uint64_t bit = 1ull << (lane & 63);
  if (value) {
    row[lane >> 6] |= bit;
  } else {
    row[lane >> 6] &= ~bit;
  }
}

Status VerticalCodeStore::Append(const BinaryCode& code) {
  if (size_ == 0 && bits_ == 0) bits_ = code.size();
  if (code.size() != bits_) {
    return Status::InvalidArgument("VerticalCodeStore: code length mismatch");
  }
  const std::size_t slot = size_;
  EnsureBlocks(slot / kBlockCodes + 1);
  // Scatter only the set bits: pad slots are already zero (fresh memory
  // or cleared by SwapRemove), so OR-ing suffices.
  uint64_t* planes = MutableBlockPlanes(slot / kBlockCodes);
  const std::size_t lane = slot % kBlockCodes;
  const std::size_t group = lane >> 6;
  const uint64_t bit = 1ull << (lane & 63);
  const auto& code_words = code.words();
  CoverInSummary(slot, code_words.data(), /*first=*/(lane & 63) == 0);
  for (std::size_t w = 0; w < code.SignificantWords(); ++w) {
    uint64_t word = code_words[w];
    while (word != 0) {
      const int t = std::countr_zero(word);
      word &= word - 1;
      // MSB-first code convention: word bit t holds code bit 64w+63-t.
      const std::size_t p = 64 * w + 63 - static_cast<std::size_t>(t);
      planes[p * kWordsPerPlane + group] |= bit;
    }
  }
  ++size_;
  return Status::OK();
}

void VerticalCodeStore::CoverInSummary(std::size_t slot,
                                       const uint64_t* code_words,
                                       bool first) {
  uint64_t* summary =
      summary_.data() + (slot / kBlockCodes) * SummaryWords();
  const std::size_t g = (slot % kBlockCodes) / 64;
  for (std::size_t w = 0; w < words(); ++w) {
    uint64_t& agree = summary[2 * w * kWordsPerPlane + g];
    uint64_t& value = summary[(2 * w + 1) * kWordsPerPlane + g];
    if (first) {
      agree = WordMask(bits_, w);
      value = code_words[w];
    } else {
      agree &= ~(value ^ code_words[w]);
    }
  }
}

void VerticalCodeStore::SwapRemove(std::size_t i) {
  const std::size_t last = size_ - 1;
  uint64_t moved_words[BinaryCode::kWords] = {};
  for (std::size_t p = 0; p < bits_; ++p) {
    const bool moved = GetRawBit(last, p);
    if (moved) moved_words[p / 64] |= 1ull << (63 - p % 64);
    if (i != last) SetRawBit(i, p, moved);
    if (moved) SetRawBit(last, p, false);  // keep pad lanes zero
  }
  // Slot i's group gains the moved code; the group losing slot `last`
  // keeps a summary that still holds over its remaining lanes.
  if (i != last) CoverInSummary(i, moved_words, /*first=*/false);
  --size_;
  blocks_ = (size_ + kBlockCodes - 1) / kBlockCodes;
}

BinaryCode VerticalCodeStore::Get(std::size_t i) const {
  BinaryCode code(bits_);
  for (std::size_t p = 0; p < bits_; ++p) {
    if (GetRawBit(i, p)) code.SetBit(p, true);
  }
  return code;
}

void VerticalCodeStore::AssignTransposed(const CodeStore& src) {
  Reset(src.bits());
  size_ = src.size();
  blocks_ = (size_ + kBlockCodes - 1) / kBlockCodes;
  data_.assign(blocks_ * bits_ * kWordsPerPlane, 0);
  summary_.assign(blocks_ * SummaryWords(), 0);
  uint64_t m[64];
  for (std::size_t b = 0; b < blocks_; ++b) {
    uint64_t* planes = MutableBlockPlanes(b);
    uint64_t* summary = summary_.data() + b * SummaryWords();
    for (std::size_t g = 0; g < kWordsPerPlane; ++g) {
      const std::size_t base = b * kBlockCodes + g * 64;
      if (base >= src.size()) break;  // remaining groups stay zero
      // CodeStore lanes are padded to stride (a multiple of 8, not 64):
      // copy what exists and zero-fill the rest of the 64-slot group.
      // Rows go in reversed so the anti-transpose lands plane p = 64w+t
      // in m[t] with lanes in ascending order (see Transpose64).
      const std::size_t avail = std::min<std::size_t>(64, src.stride() - base);
      const std::size_t stored = std::min<std::size_t>(64, size_ - base);
      for (std::size_t w = 0; w < src.words(); ++w) {
        const uint64_t* lane = src.Lane(w) + base;
        // Exact summary: the bits every stored lane has set (`all`)
        // agree with the bits none has set (~`any`).
        uint64_t all = ~0ull;
        uint64_t any = 0;
        for (std::size_t j = 0; j < stored; ++j) {
          all &= lane[j];
          any |= lane[j];
        }
        summary[2 * w * kWordsPerPlane + g] =
            ~(all ^ any) & WordMask(bits_, w);
        summary[(2 * w + 1) * kWordsPerPlane + g] = all;
        std::fill(m, m + 64, 0);
        for (std::size_t j = 0; j < avail; ++j) m[63 - j] = lane[j];
        Transpose64(m);
        const std::size_t pbase = 64 * w;
        for (std::size_t t = 0; t < 64; ++t) {
          const std::size_t p = pbase + t;
          if (p < bits_) planes[p * kWordsPerPlane + g] = m[t];
        }
      }
    }
  }
}

bool VerticalCodeStore::SummariesHold(bool exact) const {
  for (std::size_t b = 0; b < blocks_; ++b) {
    const uint64_t* planes = BlockPlanes(b);
    const uint64_t* summary = BlockSummary(b);
    const std::size_t lanes = std::min(kBlockCodes, size_ - b * kBlockCodes);
    for (std::size_t g = 0; g < kWordsPerPlane; ++g) {
      const uint64_t stored = StoredLanes(lanes, g);
      if (stored == 0) continue;
      for (std::size_t w = 0; w < words(); ++w) {
        const uint64_t agree = summary[2 * w * kWordsPerPlane + g];
        if ((agree & ~WordMask(bits_, w)) != 0) return false;
      }
      for (std::size_t p = 0; p < bits_; ++p) {
        const uint64_t row = planes[p * kWordsPerPlane + g] & stored;
        const bool uniform = row == 0 || row == stored;
        const std::size_t w = p / 64;
        const uint64_t bit = 1ull << (63 - p % 64);
        const bool agreed = (summary[2 * w * kWordsPerPlane + g] & bit) != 0;
        const bool value =
            (summary[(2 * w + 1) * kWordsPerPlane + g] & bit) != 0;
        if (agreed && (!uniform || value != (row != 0))) return false;
        if (exact && uniform && !agreed) return false;
      }
    }
  }
  return true;
}

bool VerticalCodeStore::IsTransposeOf(const CodeStore& src) const {
  if (size_ != src.size()) return false;
  // Both empty: vacuously transposes. CodeStore learns its width from
  // the first Append, so an empty source reports bits() == 0 even when
  // this store was Reset to a concrete width.
  if (size_ == 0) return true;
  if (bits_ != src.bits()) return false;
  uint64_t m[64];
  for (std::size_t b = 0; b < blocks_; ++b) {
    const uint64_t* planes = BlockPlanes(b);
    for (std::size_t g = 0; g < kWordsPerPlane; ++g) {
      const std::size_t base = b * kBlockCodes + g * 64;
      for (std::size_t w = 0; w < src.words(); ++w) {
        // Gather this group's plane words and apply the involution: the
        // anti-transpose of the plane words is the reversed row array,
        // so m[63-j] must reproduce lane word j, pads included.
        const std::size_t pbase = 64 * w;
        for (std::size_t t = 0; t < 64; ++t) {
          const std::size_t p = pbase + t;
          m[t] = p < bits_ ? planes[p * kWordsPerPlane + g] : 0;
        }
        Transpose64(m);
        const std::size_t avail =
            base < src.stride()
                ? std::min<std::size_t>(64, src.stride() - base)
                : 0;
        const uint64_t* lane = avail > 0 ? src.Lane(w) + base : nullptr;
        for (std::size_t j = 0; j < 64; ++j) {
          const uint64_t expect = j < avail ? lane[j] : 0;
          if (m[63 - j] != expect) return false;
        }
      }
    }
  }
  // All slots beyond size_ inside allocated blocks must be zero too;
  // covered above because src pads are zero and blocks_ covers size_.
  return true;
}

}  // namespace hamming::kernels
