// Shared declarations for the fuzz harnesses.
//
// Each harness lives in its own fuzz_*.cc and exposes its logic as a
// named Run*FuzzInput function; the libFuzzer entry point
// LLVMFuzzerTestOneInput is a thin wrapper compiled out when
// HAMMING_FUZZ_NO_ENTRY is defined, so tests/test_fuzz_corpus.cc can
// link all three harnesses into one binary and replay the seed corpora
// under ASan.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hamming_fuzz {

/// Drives common/serde.h: decodes the input as an op stream against a
/// BufferReader (bounds/overflow paths), decodes it as a vector record,
/// a code record and a pair block (mrjoin/common.h) and as a Spectral
/// Hashing model that must then hash a row, and round-trips
/// fuzz-chosen values through BufferWriter -> BufferReader, trapping on
/// mismatch.
void RunSerdeFuzzInput(const uint8_t* data, std::size_t size);

/// Drives storage/file_io.h: writes the input bytes to a temp file and
/// streams records out of it with SpillSegmentCursor (header/index CRC,
/// page framing, record length prefixes). Malformed files must surface
/// as Status, never as UB.
void RunSpillFuzzInput(const uint8_t* data, std::size_t size);

/// Drives observability/json.h: JsonUnescape on the raw input, plus the
/// escape -> unescape round-trip invariant on arbitrary bytes.
void RunJsonFuzzInput(const uint8_t* data, std::size_t size);

/// Drives kernels/vertical_code_store.h: builds a fuzz-chosen code
/// store, transposes it (bulk and incrementally), and traps if the
/// vertical plane-pruning scan ever disagrees with the horizontal
/// kernel, or if the transpose round trip loses a bit.
void RunVerticalFuzzInput(const uint8_t* data, std::size_t size);

}  // namespace hamming_fuzz

// Trap so the failure is caught by the fuzzer / sanitizer with a stack
// trace; fuzz invariants must hold in every build type (no assert()).
#define HAMMING_FUZZ_CHECK(cond)            \
  do {                                      \
    if (!(cond)) __builtin_trap();          \
  } while (0)
