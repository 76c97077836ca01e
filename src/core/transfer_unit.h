// Listing 4: the Transfer block — takes each validated gamma RN from
// its work-item, packs 16 of them into one 512-bit word (`g512`
// packer, float16-equivalent) and stores each full word into global
// memory at the work-item's own offset (§III-E2: device-level buffer
// combining — one shared device buffer, each work-item addressing its
// slice via wid).
//
// This is the *functional* Transfer: a sink the work-item's compute
// writes into directly (DecoupledWorkItems). The LTRANSF burst buffer
// decides only when words reach memory, never which bytes land where,
// so it lives with the rest of the block's cycle timing in
// fpga::simulate_kernel.
#pragma once

#include <cstdint>
#include <span>

#include "hls/ap_uint.h"

namespace dwi::core {

using MemoryWord = hls::ap_uint<512>;

/// Pack a float into the next lane of a 512-bit word (Listing 4's
/// `g512` helper). Returns true when the word just became full.
bool pack_g512(MemoryWord* word, float value, unsigned* lane);

/// Unpack lane `i` of a 512-bit word back to a float.
float unpack_g512(const MemoryWord& word, unsigned lane);

/// One work-item's Transfer unit: packs every write() into the current
/// g512 word and stores each full word into the work-item's slice,
/// `total_floats / 16` words starting at word `word_offset` of the
/// device buffer (blockOffset · wid in Listing 4).
class TransferUnit {
 public:
  /// Throws dwi::Error unless `total_floats` is a multiple of 16 (one
  /// beat) and the slice fits inside `device_buffer`.
  TransferUnit(std::span<MemoryWord> device_buffer, std::uint64_t word_offset,
               std::uint64_t total_floats);

  /// Throws dwi::Error once the slice is full.
  void write(float value);

  std::uint64_t floats_written() const { return written_; }

 private:
  std::span<MemoryWord> slice_;
  MemoryWord word_;
  unsigned lane_ = 0;
  std::uint64_t written_ = 0;
};

}  // namespace dwi::core
