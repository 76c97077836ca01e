// Property-based differential tests for the HLS construct library:
// ap_uint against a 128-bit reference, ap_fixed against exact double
// arithmetic.
#include <gtest/gtest.h>

#include <random>

#include "common/bits.h"
#include "hls/ap_fixed.h"
#include "hls/ap_uint.h"

namespace dwi::hls {
namespace {

__extension__ using uint128 = unsigned __int128;

uint128 to_u128(const ap_uint<128>& x) {
  return (static_cast<uint128>(x.limb(1)) << 64) | x.limb(0);
}

ap_uint<128> from_u128(uint128 v) {
  ap_uint<128> r(static_cast<std::uint64_t>(v));
  r.set_range(127, 64, static_cast<std::uint64_t>(v >> 64));
  return r;
}

class ApUint128Differential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ApUint128Differential, ArithmeticMatches128BitReference) {
  std::mt19937_64 eng(GetParam());
  for (int it = 0; it < 2000; ++it) {
    const uint128 a = (static_cast<uint128>(eng()) << 64) | eng();
    const uint128 b = (static_cast<uint128>(eng()) << 64) | eng();
    const auto xa = from_u128(a);
    const auto xb = from_u128(b);
    ASSERT_EQ(to_u128(xa + xb), static_cast<uint128>(a + b));
    ASSERT_EQ(to_u128(xa - xb), static_cast<uint128>(a - b));
    ASSERT_EQ(to_u128(xa * xb), static_cast<uint128>(a * b));
    ASSERT_EQ(to_u128(xa & xb), a & b);
    ASSERT_EQ(to_u128(xa | xb), a | b);
    ASSERT_EQ(to_u128(xa ^ xb), a ^ b);
    const unsigned s = static_cast<unsigned>(eng() % 128);
    ASSERT_EQ(to_u128(xa << s), static_cast<uint128>(a << s));
    ASSERT_EQ(to_u128(xa >> s), static_cast<uint128>(a >> s));
    ASSERT_EQ(xa < xb, a < b);
    ASSERT_EQ(xa == xb, a == b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApUint128Differential,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(ApUintProperty, RangeWriteReadRoundTripRandom) {
  std::mt19937_64 eng(11);
  ap_uint<512> word;
  for (int it = 0; it < 5000; ++it) {
    const unsigned lo = static_cast<unsigned>(eng() % 480);
    const unsigned width = 1 + static_cast<unsigned>(eng() % 64);
    const unsigned hi = std::min(511u, lo + width - 1);
    const std::uint64_t mask = (hi - lo + 1) == 64
                                   ? ~std::uint64_t{0}
                                   : ((std::uint64_t{1} << (hi - lo + 1)) - 1);
    const std::uint64_t v = eng() & mask;
    word.set_range(hi, lo, v);
    ASSERT_EQ(word.get_range64(hi, lo), v) << "lo=" << lo << " hi=" << hi;
  }
}

TEST(ApUintProperty, SumOfBitsEqualsValue) {
  // x == Σ bit_i · 2^i for random 200-bit values.
  std::mt19937_64 eng(13);
  for (int it = 0; it < 200; ++it) {
    ap_uint<200> x;
    for (unsigned limb = 0; limb < 4; ++limb) {
      x.set_range(std::min(199u, limb * 64 + 63), limb * 64,
                  eng());
    }
    ap_uint<200> rebuilt;
    for (unsigned i = 0; i < 200; ++i) {
      if (x.bit(i)) rebuilt.set_bit(i, true);
    }
    ASSERT_EQ(x, rebuilt);
  }
}

TEST(ApFixedProperty, AdditionExactWhenInRange) {
  // Fixed-point addition of representable values is exact as long as
  // the sum stays in range.
  using F = ap_fixed<32, 8>;
  std::mt19937_64 eng(17);
  std::uniform_int_distribution<std::int64_t> raw(-(1ll << 29),
                                                  (1ll << 29) - 1);
  for (int it = 0; it < 5000; ++it) {
    const auto a = F::from_raw(raw(eng));
    const auto b = F::from_raw(raw(eng));
    ASSERT_DOUBLE_EQ((a + b).to_double(), a.to_double() + b.to_double());
  }
}

TEST(ApFixedProperty, QuantizationErrorBounded) {
  using F = ap_fixed<32, 8>;
  std::mt19937_64 eng(19);
  std::uniform_real_distribution<double> ud(-127.0, 127.0);
  for (int it = 0; it < 5000; ++it) {
    const double v = ud(eng);
    const double q = F(v).to_double();
    ASSERT_LE(q, v + 1e-12);                 // truncation toward -inf
    ASSERT_GT(q, v - F::epsilon() - 1e-12);  // within one LSB
  }
}

}  // namespace
}  // namespace dwi::hls
