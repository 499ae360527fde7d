#include "kernels/code_store.h"

#include <algorithm>

namespace hamming::kernels {

void CodeStore::Reset(std::size_t bits) {
  bits_ = bits;
  nwords_ = (bits + 63) >> 6;
  size_ = 0;
  stride_ = 0;
  data_.clear();
}

Result<CodeStore> CodeStore::FromCodes(const std::vector<BinaryCode>& codes,
                                       std::span<const uint32_t> slots) {
  CodeStore store;
  if (codes.empty()) return store;
  const std::size_t n = codes.size();
  if (!slots.empty() && slots.size() != n) {
    return Status::InvalidArgument("CodeStore: one slot per code required");
  }
  store.Reset(codes[0].size());
  store.Grow((n + kLaneAlign - 1) / kLaneAlign * kLaneAlign);
  // Scatter: codes are read once in order and each word lands in its
  // slot of its lane.
  for (std::size_t i = 0; i < n; ++i) {
    if (codes[i].size() != store.bits_) {
      return Status::InvalidArgument("CodeStore: code length mismatch");
    }
    const std::size_t slot = slots.empty() ? i : slots[i];
    if (slot >= n) {
      return Status::InvalidArgument("CodeStore: slot out of range");
    }
    const auto& words = codes[i].words();
    for (std::size_t w = 0; w < store.nwords_; ++w) {
      store.data_[w * store.stride_ + slot] = words[w];
    }
  }
  store.size_ = n;
  return store;
}

void CodeStore::Grow(std::size_t new_stride) {
  if (new_stride <= stride_) return;
  std::vector<uint64_t> grown(nwords_ * new_stride, 0);
  for (std::size_t w = 0; w < nwords_; ++w) {
    std::copy_n(data_.data() + w * stride_, size_,
                grown.data() + w * new_stride);
  }
  data_ = std::move(grown);
  stride_ = new_stride;
}

Status CodeStore::Append(const BinaryCode& code) {
  if (size_ == 0 && bits_ == 0) Reset(code.size());
  if (code.size() != bits_) {
    return Status::InvalidArgument("CodeStore: code length mismatch");
  }
  if (size_ == stride_) {
    Grow(std::max<std::size_t>(kLaneAlign, stride_ * 2));
  }
  const auto& words = code.words();
  for (std::size_t w = 0; w < nwords_; ++w) {
    data_[w * stride_ + size_] = words[w];
  }
  ++size_;
  return Status::OK();
}

void CodeStore::SwapRemove(std::size_t i) {
  const std::size_t last = size_ - 1;
  for (std::size_t w = 0; w < nwords_; ++w) {
    uint64_t* lane = data_.data() + w * stride_;
    lane[i] = lane[last];
    lane[last] = 0;  // keep pad slots zero for the SIMD overread
  }
  --size_;
}

BinaryCode CodeStore::Get(std::size_t i) const {
  BinaryCode code(bits_);
  auto& words = code.mutable_words();
  for (std::size_t w = 0; w < nwords_; ++w) {
    words[w] = data_[w * stride_ + i];
  }
  return code;
}

bool CodeStore::Matches(std::size_t i, const BinaryCode& code) const {
  if (code.size() != bits_) return false;
  const auto& words = code.words();
  for (std::size_t w = 0; w < nwords_; ++w) {
    if (data_[w * stride_ + i] != words[w]) return false;
  }
  return true;
}

}  // namespace hamming::kernels
