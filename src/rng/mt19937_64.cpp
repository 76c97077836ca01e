#include "rng/mt19937_64.h"

#include <algorithm>
#include <cstring>

namespace dwi::rng {

namespace {

// The published MT19937-64 tuple (Nishimura 2000), as in
// std::mt19937_64.
constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

inline std::uint64_t twist_word(std::uint64_t hi, std::uint64_t lo,
                                std::uint64_t mid) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return mid ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) : state_{}, block_{} {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    state_[i] = kInitMultiplier * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
  }
}

void Mt19937_64::refill() {
  // The recurrence in three modulo-free segments: s[i+m] not yet
  // rewritten by this pass, s[i+m-n] already rewritten, and the last
  // word, whose successor s[0] is already rewritten.
  std::size_t i = 0;
  for (; i < kN - kM; ++i) {
    state_[i] = twist_word(state_[i], state_[i + 1], state_[i + kM]);
  }
  for (; i < kN - 1; ++i) {
    state_[i] = twist_word(state_[i], state_[i + 1], state_[i + kM - kN]);
  }
  state_[kN - 1] = twist_word(state_[kN - 1], state_[0], state_[kM - 1]);

  for (std::size_t j = 0; j < kN; ++j) {
    std::uint64_t z = state_[j];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    block_[j] = z;
  }
  index_ = 0;
}

void Mt19937_64::generate_block(result_type* out, std::size_t count) {
  while (count > 0) {
    if (index_ >= kN) refill();
    const std::size_t take = std::min(count, kN - index_);
    std::memcpy(out, block_.data() + index_, take * sizeof(result_type));
    index_ += take;
    out += take;
    count -= take;
  }
}

}  // namespace dwi::rng
