// Block-refilled MT19937-64: the 64-bit Mersenne-Twister of
// std::mt19937_64, word for word, restructured for throughput.
//
// The CreditRisk+ aggregation (finance/creditrisk_plus) draws every
// default count from one sequential engine, so that engine's cost per
// word bounds the serial stage of the piped chain. libstdc++'s
// std::mt19937_64 twists one word per call with a data-dependent
// branch on the low bit. This engine refills all 312 words at once
// through rng::simd::mt64_refill (branch-free twist, tempering fused;
// the AVX2 variant runs 4 words a step), so next() is a bounds check
// plus an array read — the same structure as rng::MersenneTwister.
// A word-level consumer can also read the buffered block in place
// (peek() / advance()) and serve many draws with one vector compare.
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
#include <span>

namespace dwi::rng {

/// The published MT19937-64 tuple (Nishimura 2000), as in
/// std::mt19937_64: the recurrence rng::simd::mt64_refill runs.
namespace mt64 {
inline constexpr std::size_t kN = 312;
inline constexpr std::size_t kM = 156;
inline constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
inline constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
inline constexpr std::uint64_t kLowerMask = ~kUpperMask;
// Tempering: z ^= (z >> kU) & kD, (z << kS) & kB, (z << kT) & kC,
// then z >> kL.
inline constexpr unsigned kU = 29;
inline constexpr std::uint64_t kD = 0x5555555555555555ull;
inline constexpr unsigned kS = 17;
inline constexpr std::uint64_t kB = 0x71d67fffeda60000ull;
inline constexpr unsigned kT = 37;
inline constexpr std::uint64_t kC = 0xfff7eee000000000ull;
inline constexpr unsigned kL = 43;
}  // namespace mt64

class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = mt64::kN;

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

  /// The next words of the operator() sequence, as many as the block
  /// still buffers (after a refill when it is spent; never empty).
  /// They stay unserved until advance() serves them.
  std::span<const result_type> peek() {
    if (index_ >= kStateWords) refill();
    return {block_.data() + index_, kStateWords - index_};
  }

  /// Serve the first `n` words of peek() (n <= its size).
  void advance(std::size_t n) { index_ += n; }

  /// Fill out[0..count) with exactly the next `count` words of the
  /// operator() sequence.
  void generate_block(result_type* out, std::size_t count);

 private:
  /// rng::simd::mt64_refill: twist the state, temper it into block_;
  /// then reset index_.
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
