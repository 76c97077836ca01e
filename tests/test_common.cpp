// Unit tests for src/common: error handling, bit utilities, ring
// buffer, units, and the table printer.
#include <gtest/gtest.h>

#include <sstream>

#include "common/bits.h"
#include "common/error.h"
#include "common/ring_buffer.h"
#include "common/table.h"
#include "common/units.h"

namespace dwi {
namespace {

TEST(Error, RequireThrowsWithMessage) {
  try {
    DWI_REQUIRE(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(DWI_REQUIRE(true, "never"));
}

TEST(Bits, FloatRoundTrip) {
  for (float f : {0.0f, 1.0f, -1.5f, 3.14159f, 1e-30f, -1e30f}) {
    EXPECT_EQ(bits_to_float(float_to_bits(f)), f);
  }
}

TEST(Bits, FloatBitsKnownPattern) {
  EXPECT_EQ(float_to_bits(1.0f), 0x3f800000u);
  EXPECT_EQ(float_to_bits(-2.0f), 0xc0000000u);
}

TEST(Bits, CountLeadingZeros32) {
  EXPECT_EQ(count_leading_zeros(std::uint32_t{0}), 32);
  EXPECT_EQ(count_leading_zeros(std::uint32_t{1}), 31);
  EXPECT_EQ(count_leading_zeros(std::uint32_t{0x80000000u}), 0);
  EXPECT_EQ(count_leading_zeros(std::uint32_t{0x00010000u}), 15);
}

TEST(Bits, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(round_up(10, 16), 16);
  EXPECT_EQ(round_up(16, 16), 16);
}

TEST(Bits, PowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(12));
}

TEST(Bits, Uint2FloatRange) {
  EXPECT_EQ(uint2float(0), 0.0f);
  EXPECT_LT(uint2float(0xffffffffu), 1.0f);
  EXPECT_GT(uint2float_open0(0), 0.0f);
  EXPECT_LT(uint2float_open0(0xffffffffu), 1.0f);
}

TEST(Bits, Uint2FloatMidpoint) {
  EXPECT_FLOAT_EQ(uint2float(0x80000000u), 0.5f);
}

TEST(Bits, LowBitsAndSelectBit) {
  EXPECT_EQ(low_bits(0), 0u);
  EXPECT_EQ(low_bits(5), 0x1fu);
  EXPECT_EQ(low_bits(64), ~std::uint64_t{0});
  const std::uint64_t word = 0x8000'0001'0010'0006ull;
  const unsigned positions[] = {1, 2, 20, 32, 63};
  for (unsigned r = 0; r < 5; ++r) EXPECT_EQ(select_bit(word, r), positions[r]);
}

TEST(Bits, DepositBitsMatchesBitLoop) {
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state ^ (state >> 29);
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t x = next();
    std::uint64_t mask = next();
    if (trial % 4 == 1) mask &= next();  // sparse
    if (trial % 4 == 2) mask |= next();  // dense
    if (trial == 3) mask = 0;
    if (trial == 7) mask = ~std::uint64_t{0};
    std::uint64_t want = 0;
    unsigned k = 0;
    for (unsigned i = 0; i < 64; ++i) {
      if ((mask >> i) & 1) want |= ((x >> k++) & 1) << i;
    }
    EXPECT_EQ(deposit_bits(x, mask), want) << "x=" << x << " mask=" << mask;
  }
}

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  rb.push(4);
  rb.push(5);
  rb.push(6);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_EQ(rb.pop(), 5);
  EXPECT_EQ(rb.pop(), 6);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, TryPushRespectsCapacity) {
  RingBuffer<int> rb(2);
  EXPECT_TRUE(rb.try_push(1));
  EXPECT_TRUE(rb.try_push(2));
  EXPECT_FALSE(rb.try_push(3));
  EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, WrapAroundManyTimes) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 100; ++i) {
    rb.push(i);
    EXPECT_EQ(rb.pop(), i);
  }
}

TEST(RingBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(RingBuffer<int>(0), Error);
}

// The FIFO contract of an `#pragma HLS STREAM` channel, which the zoo
// kernels (workloads/histogram, workloads/spmv) model with a RingBuffer
// of the stream's depth: try_push is the non-blocking write, and a pop
// guarded by empty() the non-blocking read. The cases sit exactly at
// the full/empty boundaries the kernels poll on.
bool read_nb(RingBuffer<int>& s, int& v) {
  if (s.empty()) return false;
  v = s.pop();
  return true;
}

TEST(Stream, FifoOrderSingleThread) {
  RingBuffer<int> s(8);
  for (int i = 0; i < 8; ++i) s.push(i);
  EXPECT_TRUE(s.full());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(s.pop(), i);
  EXPECT_TRUE(s.empty());
}

TEST(Stream, NonBlockingVariants) {
  RingBuffer<int> s(1);
  int v = -1;
  EXPECT_FALSE(read_nb(s, v));
  EXPECT_TRUE(s.try_push(7));
  EXPECT_FALSE(s.try_push(8));  // full
  EXPECT_TRUE(read_nb(s, v));
  EXPECT_EQ(v, 7);
}

TEST(Stream, RejectsZeroDepth) { EXPECT_THROW(RingBuffer<int>(0), Error); }

TEST(HlsStream, NonBlockingWriteStopsExactlyAtDepth) {
  RingBuffer<int> s(3);
  EXPECT_TRUE(s.try_push(1));
  EXPECT_TRUE(s.try_push(2));
  EXPECT_TRUE(s.try_push(3));
  EXPECT_TRUE(s.full());
  EXPECT_FALSE(s.try_push(4));  // full: rejected, not queued
  EXPECT_EQ(s.size(), 3u);

  int v = 0;
  EXPECT_TRUE(read_nb(s, v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(s.full());
  EXPECT_TRUE(s.try_push(4));  // one slot freed, one write fits again
  EXPECT_FALSE(s.try_push(5));
  for (const int want : {2, 3, 4}) EXPECT_EQ(s.pop(), want);
  EXPECT_TRUE(s.empty());
}

TEST(HlsStream, NonBlockingReadStopsExactlyAtEmpty) {
  RingBuffer<int> s(2);
  int v = -1;
  EXPECT_FALSE(read_nb(s, v));
  EXPECT_EQ(v, -1);  // a failed read must not touch the output

  s.push(7);
  EXPECT_TRUE(read_nb(s, v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(read_nb(s, v));  // empty again
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(s.empty());
}

TEST(HlsStream, DepthOneAlternatesFullEmpty) {
  // The degenerate FIFO: every occupancy state is a boundary state.
  RingBuffer<int> s(1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.try_push(i));
    EXPECT_TRUE(s.full());
    EXPECT_FALSE(s.try_push(100 + i));
    int v = -1;
    EXPECT_TRUE(read_nb(s, v));
    EXPECT_EQ(v, i);
    EXPECT_FALSE(read_nb(s, v));
  }
}

TEST(HlsStream, RejectsZeroDepth) { EXPECT_THROW(RingBuffer<int>(0), Error); }

TEST(Units, CyclesToTime) {
  Cycles c{200'000'000};
  EXPECT_DOUBLE_EQ(c.seconds_at(200e6), 1.0);
  EXPECT_DOUBLE_EQ(c.milliseconds_at(200e6), 1000.0);
}

TEST(Units, EnergyFromPowerAndTime) {
  const Joules e = Watts{50.0} * Seconds{2.0};
  EXPECT_DOUBLE_EQ(e.value, 100.0);
}

TEST(Units, BandwidthGbps) {
  EXPECT_NEAR(bandwidth_gbps(Bytes{2'500'000'000ull}, Seconds{0.701}), 3.566,
              0.01);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"Setup", "CPU", "FPGA"});
  t.add_row({"Config1", "3825", "701"});
  t.add_separator();
  t.add_row({"Config2", "3883", "701"});
  std::ostringstream os;
  t.render(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Config1"), std::string::npos);
  EXPECT_NE(s.find("| Setup"), std::string::npos);
  // All lines share the same width.
  std::istringstream is(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << "misaligned line: " << line;
  }
}

TEST(TextTable, CsvOutput) {
  TextTable t;
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TextTable, RowArityChecked) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::integer(42), "42");
  EXPECT_EQ(TextTable::percent(0.303, 1), "30.3%");
}

}  // namespace
}  // namespace dwi
