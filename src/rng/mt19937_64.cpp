#include "rng/mt19937_64.h"

#include <algorithm>
#include <cstring>

#include "rng/simd_kernels.h"

namespace dwi::rng {

namespace {

constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) : state_{}, block_{} {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    state_[i] = kInitMultiplier * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  simd::mt64_refill(state_.data(), block_.data());
  index_ = 0;
}

void Mt19937_64::generate_block(result_type* out, std::size_t count) {
  while (count > 0) {
    if (index_ >= kStateWords) refill();
    const std::size_t take = std::min(count, kStateWords - index_);
    std::memcpy(out, block_.data() + index_, take * sizeof(result_type));
    index_ += take;
    out += take;
    count -= take;
  }
}

}  // namespace dwi::rng
