#include "core/transfer_unit.h"

#include "common/bits.h"
#include "common/error.h"

namespace dwi::core {

bool pack_g512(MemoryWord* word, float value, unsigned* lane) {
  DWI_ASSERT(*lane < 16);
  word->set_range(*lane * 32 + 31, *lane * 32, float_to_bits(value));
  ++*lane;
  if (*lane == 16) {
    *lane = 0;
    return true;
  }
  return false;
}

float unpack_g512(const MemoryWord& word, unsigned lane) {
  DWI_ASSERT(lane < 16);
  return bits_to_float(
      static_cast<std::uint32_t>(word.get_range64(lane * 32 + 31, lane * 32)));
}

TransferUnit::TransferUnit(std::span<MemoryWord> device_buffer,
                           std::uint64_t word_offset,
                           std::uint64_t total_floats) {
  DWI_REQUIRE(total_floats % 16 == 0,
              "slice length must be a multiple of 16 floats (one beat)");
  DWI_REQUIRE(word_offset <= device_buffer.size() &&
                  total_floats / 16 <= device_buffer.size() - word_offset,
              "transfer slice overruns the device buffer");
  slice_ = device_buffer.subspan(word_offset, total_floats / 16);
}

void TransferUnit::write(float value) {
  DWI_REQUIRE(written_ < slice_.size() * 16,
              "work-item wrote past its transfer slice");
  if (pack_g512(&word_, value, &lane_)) slice_[written_ / 16] = word_;
  ++written_;
}

}  // namespace dwi::core
