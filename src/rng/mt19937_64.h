// Block-refilled MT19937-64: the 64-bit Mersenne-Twister of
// std::mt19937_64, word for word, restructured for throughput.
//
// The CreditRisk+ aggregation (finance/creditrisk_plus) draws every
// default count from one sequential engine, so that engine's cost per
// word bounds the serial stage of the piped chain. libstdc++'s
// std::mt19937_64 twists one word per call with a data-dependent
// branch on the low bit. This engine twists all 312 words in one pass
// with a branch-free coefficient, `(0 - (y & 1)) & a`, then tempers
// the block in a second tight loop, so next() is a bounds check plus
// an array read — the same structure as rng::MersenneTwister.
//
// Seeding is the standard 64-bit Knuth initializer, so
// Mt19937_64(s) and std::mt19937_64(s) yield the same words
// (tests/test_block_rng.cpp pins this across refills). The class
// satisfies UniformRandomBitGenerator: std::poisson_distribution draws
// from it exactly as from std::mt19937_64.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace dwi::rng {

class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(std::uint64_t seed = 5489u);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next tempered word; one refill() per 312 draws.
  result_type operator()() {
    if (index_ >= kStateWords) refill();
    return block_[index_++];
  }

  /// Fill out[0..count) with exactly the next `count` words of the
  /// operator() sequence.
  void generate_block(result_type* out, std::size_t count);

 private:
  /// Twist the whole state, temper it into block_, reset index_.
  void refill();

  std::array<std::uint64_t, kStateWords> state_;
  std::array<std::uint64_t, kStateWords> block_;
  std::size_t index_ = kStateWords;
};

/// The uniform draw std::generate_canonical<double, 53> makes from one
/// 64-bit word, w·2^-64 clamped below 1, without the sign-bit branch of
/// a uint64→double conversion: both 32-bit halves convert exactly, so
/// the one add is the correctly rounded value of w.
inline double canonical_double(std::uint64_t w) {
  const double d = static_cast<double>(static_cast<std::uint32_t>(w >> 32)) *
                       0x1p32 +
                   static_cast<double>(static_cast<std::uint32_t>(w));
  const double u = d * 0x1p-64;
  // w ≥ 2^64 − 2^10 rounds up to 2^64; libstdc++ returns the largest
  // double below 1 there.
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  return u < kBelowOne ? u : kBelowOne;
}

}  // namespace dwi::rng
