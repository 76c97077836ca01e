// Unit + property tests for the arbitrary-precision HLS types
// (ap_uint, ap_fixed), including the 512-bit packing pattern
// the paper's Transfer block depends on (16 floats per word).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "common/bits.h"
#include "hls/ap_fixed.h"
#include "hls/ap_uint.h"

namespace dwi::hls {
namespace {

TEST(ApUint, ConstructionAndTruncation) {
  ap_uint<8> a(0x1ffu);
  EXPECT_EQ(a.to_uint64(), 0xffu);  // truncated modulo 2^8
  ap_uint<64> b(0xdeadbeefcafebabeull);
  EXPECT_EQ(b.to_uint64(), 0xdeadbeefcafebabeull);
}

TEST(ApUint, WidthConversion) {
  ap_uint<512> wide(42);
  ap_uint<32> narrow(wide);
  EXPECT_EQ(narrow.to_uint64(), 42u);
  ap_uint<512> back(narrow);
  EXPECT_EQ(back.to_uint64(), 42u);
}

TEST(ApUint, BitSetAndTest) {
  ap_uint<128> x;
  x.set_bit(0, true);
  x.set_bit(64, true);
  x.set_bit(127, true);
  EXPECT_TRUE(x.bit(0));
  EXPECT_TRUE(x.bit(64));
  EXPECT_TRUE(x.bit(127));
  EXPECT_FALSE(x.bit(1));
  x.set_bit(64, false);
  EXPECT_FALSE(x.bit(64));
}

TEST(ApUint, RangeReadWriteWithinLimb) {
  ap_uint<64> x;
  x.set_range(15, 8, 0xab);
  EXPECT_EQ(x.get_range64(15, 8), 0xabu);
  EXPECT_EQ(x.to_uint64(), 0xab00u);
}

TEST(ApUint, RangeReadWriteAcrossLimbBoundary) {
  ap_uint<128> x;
  x.set_range(79, 48, 0x12345678u);
  EXPECT_EQ(x.get_range64(79, 48), 0x12345678u);
  // Neighbours untouched.
  EXPECT_EQ(x.get_range64(47, 16), 0u);
  EXPECT_EQ(x.get_range64(111, 80), 0u);
}

TEST(ApUint, Pack16FloatsInto512Bits) {
  // Listing 4's packing: 16 single-precision values per 512-bit word.
  ap_uint<512> word;
  float values[16];
  for (int i = 0; i < 16; ++i) values[i] = 1.5f * static_cast<float>(i) - 3.0f;
  for (unsigned i = 0; i < 16; ++i) {
    word.set_range(i * 32 + 31, i * 32, float_to_bits(values[i]));
  }
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(bits_to_float(static_cast<std::uint32_t>(
                  word.get_range64(i * 32 + 31, i * 32))),
              values[i]);
  }
}

TEST(ApUint, ShiftsMatchUint64ForSmallWidths) {
  std::mt19937_64 eng(3);
  for (int it = 0; it < 200; ++it) {
    const std::uint64_t v = eng();
    const unsigned s = static_cast<unsigned>(eng() % 64);
    ap_uint<64> x(v);
    EXPECT_EQ((x << s).to_uint64(), v << s);
    EXPECT_EQ((x >> s).to_uint64(), v >> s);
  }
}

TEST(ApUint, ShiftAcrossLimbs) {
  ap_uint<192> x(1);
  ap_uint<192> y = x << 130;
  EXPECT_TRUE(y.bit(130));
  EXPECT_EQ((y >> 130).to_uint64(), 1u);
  EXPECT_TRUE((y >> 131).is_zero());
}

TEST(ApUint, AddSubWithCarryChain) {
  ap_uint<128> a;
  a.set_range(63, 0, ~std::uint64_t{0});
  ap_uint<128> b(1);
  ap_uint<128> sum = a + b;
  EXPECT_EQ(sum.get_range64(63, 0), 0u);
  EXPECT_TRUE(sum.bit(64));
  EXPECT_EQ((sum - b).get_range64(63, 0), ~std::uint64_t{0});
}

TEST(ApUint, AdditionWrapsModulo2PowW) {
  ap_uint<32> a(0xffffffffu);
  ap_uint<32> b(2);
  EXPECT_EQ((a + b).to_uint64(), 1u);
}

TEST(ApUint, MultiplicationMatchesUint64) {
  std::mt19937_64 eng(5);
  for (int it = 0; it < 200; ++it) {
    const std::uint64_t a = eng();
    const std::uint64_t b = eng();
    ap_uint<64> x(a);
    ap_uint<64> y(b);
    EXPECT_EQ((x * y).to_uint64(), a * b);
  }
}

TEST(ApUint, MultiplicationWide) {
  // (2^64 + 3) * (2^64 + 5) = 2^128 + 8·2^64 + 15; in 192 bits.
  ap_uint<192> a;
  a.set_bit(64, true);
  a += ap_uint<192>(3);
  ap_uint<192> b;
  b.set_bit(64, true);
  b += ap_uint<192>(5);
  ap_uint<192> p = a * b;
  EXPECT_EQ(p.get_range64(63, 0), 15u);
  EXPECT_EQ(p.get_range64(127, 64), 8u);
  EXPECT_TRUE(p.bit(128));
}

TEST(ApUint, ComparisonOrdering) {
  ap_uint<96> a(5);
  ap_uint<96> b;
  b.set_bit(64, true);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, ap_uint<96>(5));
}

TEST(ApUint, BitwiseOpsAndNot) {
  ap_uint<40> a(0b1100u);
  ap_uint<40> b(0b1010u);
  EXPECT_EQ((a & b).to_uint64(), 0b1000u);
  EXPECT_EQ((a | b).to_uint64(), 0b1110u);
  EXPECT_EQ((a ^ b).to_uint64(), 0b0110u);
  // ~0 in 40 bits is 2^40 - 1 (invariant: bits above W stay zero).
  EXPECT_EQ((~ap_uint<40>(0)).to_uint64(), (std::uint64_t{1} << 40) - 1);
}

TEST(ApUint, HexString) {
  ap_uint<16> a(0xbeef);
  EXPECT_EQ(a.to_hex_string(), "beef");
  ap_uint<12> b(0xabc);
  EXPECT_EQ(b.to_hex_string(), "abc");
}

TEST(ApFixed, QuantizationTruncatesTowardNegInfinity) {
  using F = ap_fixed<16, 8>;  // 8 fractional bits, lsb = 1/256
  EXPECT_DOUBLE_EQ(F(1.0).to_double(), 1.0);
  EXPECT_DOUBLE_EQ(F(1.00390625).to_double(), 1.00390625);  // exact
  // 1.003 truncates down to 1.00390625 - 1/256? No: floor(1.003*256)=256.
  EXPECT_DOUBLE_EQ(F(1.003).to_double(), 1.0);
  EXPECT_DOUBLE_EQ(F(-1.003).to_double(), -1.00390625);  // toward -inf
}

TEST(ApFixed, AdditionExact) {
  using F = ap_fixed<32, 8>;
  F a(1.25);
  F b(2.5);
  EXPECT_DOUBLE_EQ((a + b).to_double(), 3.75);
  EXPECT_DOUBLE_EQ((a - b).to_double(), -1.25);
}

TEST(ApFixed, MultiplicationFullPrecisionThenTruncate) {
  using F = ap_fixed<32, 8>;  // 24 frac bits
  F a(1.5);
  F b(2.25);
  EXPECT_DOUBLE_EQ((a * b).to_double(), 3.375);
}

TEST(ApFixed, MultiplicationTruncationProperty) {
  // For random values the fixed product never exceeds the real product
  // and differs by less than one LSB (AP_TRN behaviour)
  // (positive operands).
  using F = ap_fixed<32, 8>;
  std::mt19937_64 eng(11);
  std::uniform_real_distribution<double> ud(0.0, 8.0);
  for (int it = 0; it < 300; ++it) {
    const double a = ud(eng);
    const double b = ud(eng);
    const double exact = F(a).to_double() * F(b).to_double();
    const double fixed = (F(a) * F(b)).to_double();
    EXPECT_LE(fixed, exact + 1e-12);
    EXPECT_GT(fixed, exact - F::epsilon() - 1e-12);
  }
}

TEST(ApFixed, NegationAndComparison) {
  using F = ap_fixed<24, 6>;
  F a(2.5);
  EXPECT_DOUBLE_EQ((-a).to_double(), -2.5);
  EXPECT_LT(-a, a);
  EXPECT_EQ(a, F(2.5));
}

TEST(ApFixed, EpsilonIsLsb) {
  using F = ap_fixed<32, 5>;
  EXPECT_DOUBLE_EQ(F::epsilon(), std::exp2(-27));
}

TEST(ApFixed, WrapOnOverflow) {
  using F = ap_fixed<8, 4>;  // range [-8, 8), lsb 1/16
  // 8.0 wraps to -8.0 (AP_WRAP).
  EXPECT_DOUBLE_EQ(F(8.0).to_double(), -8.0);
}

}  // namespace
}  // namespace dwi::hls
