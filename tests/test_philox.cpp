// Tests for the Philox4x32-10 counter-based generator: Random123
// known-answer vectors, stream/seek semantics, statistical quality,
// and the structural non-overlap of keyed streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rng/philox.h"
#include "stats/battery.h"

namespace dwi::rng {
namespace {

TEST(Philox, KnownAnswerVectors) {
  // Random123 kat_vectors for philox4x32-10.
  const auto zero = philox4x32({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(zero[0], 0x6627e8d5u);
  EXPECT_EQ(zero[1], 0xe169c58du);
  EXPECT_EQ(zero[2], 0xbc57ac4cu);
  EXPECT_EQ(zero[3], 0x9b00dbd8u);

  const auto ones = philox4x32(
      {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
      {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(ones[0], 0x408f276du);
  EXPECT_EQ(ones[1], 0x41c83b0eu);
  EXPECT_EQ(ones[2], 0xa20bc7c6u);
  EXPECT_EQ(ones[3], 0x6d5451fdu);

  const auto pi = philox4x32(
      {0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
      {0xa4093822u, 0x299f31d0u});
  EXPECT_EQ(pi[0], 0xd16cfe09u);
  EXPECT_EQ(pi[1], 0x94fdccebu);
  EXPECT_EQ(pi[2], 0x5001e420u);
  EXPECT_EQ(pi[3], 0x24126ea1u);
}

TEST(Philox, StreamIsDeterministic) {
  Philox a(42u, 0);
  Philox b(42u, 0);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Philox, DistinctKeysDistinctStreams) {
  Philox a(42u, 0);
  Philox b(42u, 1);
  Philox c(43u, 0);
  int eq_ab = 0;
  int eq_ac = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto va = a.next();
    if (va == b.next()) ++eq_ab;
    if (va == c.next()) ++eq_ac;
  }
  EXPECT_LT(eq_ab, 3);
  EXPECT_LT(eq_ac, 3);
}

TEST(Philox, SeekIsRandomAccess) {
  // seek(k) lands exactly where k sequential draws would.
  Philox seq(7u, 3);
  std::vector<std::uint32_t> ref(1000);
  for (auto& v : ref) v = seq.next();
  for (std::uint64_t k : {0ull, 1ull, 5ull, 42ull, 999ull}) {
    Philox jumped(7u, 3);
    jumped.seek(k);
    ASSERT_EQ(jumped.next(), ref[k]) << "k=" << k;
  }
}

TEST(Philox, SeekFarIsO1) {
  // Position 2^60 — impossible sequentially, instant for Philox.
  Philox p(9u, 0);
  p.seek(1ull << 60);
  const auto v = p.next();
  Philox q(9u, 0);
  q.seek((1ull << 60) + 1);
  EXPECT_EQ(q.next(), p.next());
  (void)v;
}

TEST(Philox, PassesStatisticalBattery) {
  Philox p(123u, 7);
  const auto report = stats::run_battery([&] { return p.next(); });
  EXPECT_TRUE(report.all_pass(1e-5)) << "min p " << report.min_p_value();
}

TEST(Philox, CounterIncrementCarries) {
  // Force the 32-bit carry: blocks at counter 0xffffffff and 0x1'00000000
  // must differ and be reproducible via seek.
  Philox p(1u, 0);
  p.seek(0xffffffffull * 4);
  const auto at_carry = p.next();
  Philox q(1u, 0);
  q.seek(0x100000000ull * 4);
  EXPECT_NE(at_carry, q.next());
}

TEST(Philox, GenerateBlockMatchesSequentialNext) {
  // Bulk generation must equal k sequential next() calls regardless of
  // how the request is chunked — including chunks that start mid-block
  // (lane != 0), end mid-block, and cross many refills.
  Philox seq(2026u, 5);
  std::vector<std::uint32_t> ref(4096);
  for (auto& v : ref) v = seq.next();

  for (const std::vector<std::size_t>& chunks :
       {std::vector<std::size_t>{4096},
        std::vector<std::size_t>{1, 1, 1, 1, 4092},
        std::vector<std::size_t>{3, 5, 7, 11, 4070},
        std::vector<std::size_t>{2, 4094},
        std::vector<std::size_t>{1023, 1, 1024, 2048}}) {
    Philox bulk(2026u, 5);
    std::vector<std::uint32_t> got;
    got.reserve(4096);
    for (const std::size_t c : chunks) {
      std::vector<std::uint32_t> buf(c);
      bulk.generate_block(buf.data(), buf.size());
      got.insert(got.end(), buf.begin(), buf.end());
    }
    ASSERT_EQ(got, ref);
  }
}

TEST(Philox, GenerateBlockInterleavesWithNext) {
  // Mixing scalar next() and generate_block() walks one tape.
  Philox seq(77u, 1);
  std::vector<std::uint32_t> ref(256);
  for (auto& v : ref) v = seq.next();

  Philox mixed(77u, 1);
  std::vector<std::uint32_t> got;
  std::size_t i = 0;
  while (got.size() < 256) {
    if (i % 2 == 0) {
      got.push_back(mixed.next());
    } else {
      std::uint32_t buf[13];
      const std::size_t take = std::min<std::size_t>(13, 256 - got.size());
      mixed.generate_block(buf, take);
      got.insert(got.end(), buf, buf + take);
    }
    ++i;
  }
  EXPECT_EQ(got, ref);
}

TEST(Philox, SeekAcrossLaneBoundaries) {
  // seek(k) ≡ k× next() for every lane phase around block boundaries.
  Philox seq(31u, 2);
  std::vector<std::uint32_t> ref(64);
  for (auto& v : ref) v = seq.next();
  for (std::uint64_t k = 0; k < 16; ++k) {
    Philox p(31u, 2);
    p.seek(k);
    ASSERT_EQ(p.next(), ref[k]) << "k=" << k;
    // Continue a few more draws: the post-seek state must be the full
    // sequential state, not just the right first output.
    for (std::uint64_t j = k + 1; j < std::min<std::uint64_t>(k + 5, 64); ++j) {
      ASSERT_EQ(p.next(), ref[j]) << "k=" << k << " j=" << j;
    }
  }
}

TEST(Philox, SeekCarriesPast2to32Blocks) {
  // Output index 2^34 = block 2^32: the block index no longer fits the
  // counter's low word. seek must carry into counter word 1; advancing
  // sequentially across the boundary must agree with direct seeks.
  Philox p(6u, 0);
  p.seek((0x100000000ull * 4) - 2);  // two outputs before the carry block
  const std::uint32_t before = p.next();
  (void)before;
  (void)p.next();             // consumes the last pre-carry output
  const std::uint32_t after = p.next();  // first output of block 2^32

  Philox q(6u, 0);
  q.seek(0x100000000ull * 4);
  EXPECT_EQ(q.next(), after);
}

TEST(Philox, Seek128ReachesBeyond2to64Outputs) {
  // The 128-bit overload addresses outputs past 2^64. Consistency
  // check: seek(lo=2^64-2, hi=0) then 4 draws lands where
  // seek(lo=2, hi=1) starts.
  Philox p(8u, 0);
  p.seek(~std::uint64_t{0} - 1, 0);  // output index 2^64 - 2
  (void)p.next();
  (void)p.next();                    // now at output 2^64 = (lo=0, hi=1)
  (void)p.next();
  (void)p.next();                    // now at (lo=2, hi=1)
  const std::uint32_t expect = p.next();

  Philox q(8u, 0);
  q.seek(2, 1);
  EXPECT_EQ(q.next(), expect);
}

TEST(Philox, SkipIsRelativeSeek) {
  // skip(k) from any phase ≡ k discarded next() calls — including
  // phases mid-block and skips that end mid-block.
  for (const std::uint64_t pre : {0ull, 1ull, 3ull, 4ull, 6ull}) {
    for (const std::uint64_t k : {0ull, 1ull, 2ull, 4ull, 5ull, 101ull}) {
      Philox a(13u, 4);
      Philox b(13u, 4);
      for (std::uint64_t i = 0; i < pre; ++i) {
        (void)a.next();
        (void)b.next();
      }
      for (std::uint64_t i = 0; i < k; ++i) (void)a.next();
      b.skip(k);
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(a.next(), b.next()) << "pre=" << pre << " k=" << k;
      }
    }
  }
}

TEST(CounterSubstreams, StreamsTileTheMasterSequence) {
  // stream(i) is the master Philox sequence offset by i·stride —
  // consecutive substreams tile it with no gaps or overlap.
  constexpr std::uint64_t kStride = 37;  // deliberately not a multiple of 4
  const CounterSubstreams subs(99u, kStride);
  Philox master(99u, 0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Philox s = subs.stream(i);
    for (std::uint64_t j = 0; j < kStride; ++j) {
      ASSERT_EQ(s.next(), master.next()) << "substream " << i << " pos " << j;
    }
  }
}

TEST(CounterSubstreams, DerivationIsOrderIndependent) {
  const CounterSubstreams subs(5u, 1ull << 26);
  Philox a1 = subs.stream(1000);
  Philox b = subs.stream(3);
  Philox a2 = subs.stream(1000);
  (void)b;
  for (int i = 0; i < 32; ++i) ASSERT_EQ(a1.next(), a2.next());
}

TEST(CounterSubstreams, HugeIndexTimesStrideDoesNotWrap) {
  // index·stride overflows 64 bits; the 128-bit position must keep
  // distinct indices on distinct streams instead of aliasing mod 2^64.
  constexpr std::uint64_t kStride = 1ull << 26;
  const CounterSubstreams subs(12u, kStride);
  // These two indices collide mod 2^64/stride iff the product wraps.
  Philox a = subs.stream(1ull << 40);
  Philox b = subs.stream((1ull << 40) + (1ull << 38));  // product > 2^64
  int eq = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.next() == b.next()) ++eq;
  }
  EXPECT_LT(eq, 3);
}

}  // namespace
}  // namespace dwi::rng
