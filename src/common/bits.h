// Small bit-manipulation helpers shared by the RNG transforms, the
// arbitrary-precision types and the FPGA resource model.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace dwi {

/// Reinterpret the bit pattern of a float as a 32-bit unsigned integer.
inline std::uint32_t float_to_bits(float f) {
  return std::bit_cast<std::uint32_t>(f);
}

/// Reinterpret a 32-bit unsigned integer bit pattern as a float.
inline float bits_to_float(std::uint32_t u) { return std::bit_cast<float>(u); }

/// Number of leading zeros of a 32-bit value; 32 when x == 0.
inline int count_leading_zeros(std::uint32_t x) {
  return x == 0 ? 32 : std::countl_zero(x);
}

/// Number of leading zeros of a 64-bit value; 64 when x == 0.
inline int count_leading_zeros(std::uint64_t x) {
  return x == 0 ? 64 : std::countl_zero(x);
}

/// ceil(a / b) for positive integers.
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return static_cast<T>((a + b - 1) / b);
}

/// Round `a` up to the next multiple of `b`.
template <typename T>
constexpr T round_up(T a, T b) {
  return ceil_div(a, b) * b;
}

/// The low `n` bits set, for n in [0, 64].
constexpr std::uint64_t low_bits(unsigned n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Position of the r-th set bit (from 0) of `word`; requires
/// r < popcount(word). Branch-free halving: each step skips the low
/// half when it holds too few set bits.
inline unsigned select_bit(std::uint64_t word, unsigned r) {
  unsigned pos = 0;
  for (unsigned width = 32; width > 0; width /= 2) {
    const auto low =
        static_cast<unsigned>(std::popcount(word & low_bits(width)));
    const bool skip = r >= low;
    r -= skip ? low : 0;
    word >>= skip ? width : 0;
    pos += skip ? width : 0;
  }
  return pos;
}

/// Bit i of a bit array: bit i % 64 of words[i / 64].
inline bool bit_at(const std::uint64_t* words, std::size_t i) {
  return ((words[i / 64] >> (i % 64)) & 1) != 0;
}

/// The low popcount(mask) bits of x moved onto mask's set bits, in
/// order (what BMI2 pdep does), by the log-step expand of Hacker's
/// Delight section 7-5.
inline std::uint64_t deposit_bits(std::uint64_t x, std::uint64_t mask) {
  const std::uint64_t m0 = mask;
  std::uint64_t moves[6];
  std::uint64_t mk = ~mask << 1;  // zeros to the right of each bit
  for (unsigned i = 0; i < 6; ++i) {
    std::uint64_t mp = mk ^ (mk << 1);  // parallel suffix parity
    mp ^= mp << 2;
    mp ^= mp << 4;
    mp ^= mp << 8;
    mp ^= mp << 16;
    mp ^= mp << 32;
    const std::uint64_t mv = mp & mask;  // bits that move 2^i left
    moves[i] = mv;
    mask = (mask ^ mv) | (mv >> (1u << i));
    mk &= ~mp;
  }
  for (unsigned i = 6; i-- > 0;) {
    const std::uint64_t mv = moves[i];
    x = (x & ~mv) | ((x << (1u << i)) & mv);
  }
  return x & m0;
}

/// True when x is a power of two (and nonzero).
constexpr bool is_power_of_two(std::uint64_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Convert a 32-bit uniform integer to a float in [0, 1).
/// This mirrors the paper's `uint2float` helper used in Listing 2.
/// Only the top 24 bits are used — a float mantissa cannot hold more,
/// and naive u · 2^-32 rounds the largest inputs up to exactly 1.0f.
inline float uint2float(std::uint32_t u) {
  return static_cast<float>(u >> 8) * 0x1.0p-24f;
}

/// Convert a 32-bit uniform integer to a float in (0, 1): never exactly
/// zero or one, so it is safe on either side of log()/pow(). Used by
/// the rejection and correction uniforms.
inline float uint2float_open0(std::uint32_t u) {
  // 23 bits + the half-offset fit a 24-bit mantissa exactly, so the
  // largest result is 1 - 2^-24, strictly below one.
  return (static_cast<float>(u >> 9) + 0.5f) * 0x1.0p-23f;
}

/// Convert a 32-bit uniform integer to a double in [0, 1).
inline double uint2double(std::uint32_t u) {
  return static_cast<double>(u) * 0x1.0p-32;
}

}  // namespace dwi
