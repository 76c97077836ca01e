// Bit-identity of the vectorized block kernels against their scalar
// oracles (the contract simd_kernels.h declares). Each test runs every
// kernel through the table of each level this binary compiles and this
// host runs, and through the dispatched table, against the scalar
// table — so a DWI_SIMD setting cannot skip the interesting comparison.
// Counts straddle the vector widths (every count 0-40, then 16-lane
// multiples ± 1), and the Philox kernel is driven across 32-bit
// counter-word carries inside and on the edge of 8- and 16-block
// groups, the groups the vector bodies hand a level down.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/bits.h"
#include "rng/erfinv.h"
#include "rng/fastmath.h"
#include "rng/gamma.h"
#include "rng/icdf_bitwise.h"
#include "rng/mersenne_twister.h"
#include "rng/mt19937_64.h"
#include "rng/normal.h"
#include "rng/philox.h"
#include "rng/simd_kernels.h"

namespace dwi::rng::simd {
namespace {

const Kernels& scalar() { return *kernels(Level::kScalar); }

/// A table under test and its name for failure messages.
struct Table {
  const char* name;
  const Kernels* k;
};

/// Each vector level up to host_level(), then the dispatched table.
std::vector<Table> vector_tables() {
  std::vector<Table> out;
  for (const Level level : {Level::kAvx2, Level::kAvx512}) {
    if (level <= host_level()) {
      out.push_back({to_string(level), kernels(level)});
    }
  }
  out.push_back({"dispatched", &active_kernels()});
  return out;
}

/// Deterministic raw-uniform fixture: full-range 32-bit words,
/// including the extremes the transforms special-case.
std::vector<std::uint32_t> uniform_words(std::size_t count,
                                         std::uint32_t seed) {
  Philox p(seed, 0);
  std::vector<std::uint32_t> out(count);
  p.generate_block(out.data(), count);
  // Plant boundary values at fixed slots.
  if (count >= 4) {
    out[0] = 0u;
    out[1] = 0xffffffffu;
    out[2] = 0x80000000u;
    out[3] = 1u;
  }
  return out;
}

/// Every count 0-40 (16-lane groups, their 8-lane and scalar tails, and
/// flag words filled from several groups), 16-lane multiples ± 1 up to
/// 1025, then `more`.
std::vector<std::size_t> counts(std::initializer_list<std::size_t> more = {}) {
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n <= 40; ++n) out.push_back(n);
  for (const std::size_t m : {48u, 64u, 256u, 1024u}) {
    out.insert(out.end(), {m - 1, m, m + 1});
  }
  out.insert(out.end(), more);
  return out;
}

TEST(SimdKernels, ScalarLevelAlwaysAvailable) {
  EXPECT_NO_THROW((void)active_level());
  EXPECT_STREQ(to_string(Level::kScalar), "scalar");
  EXPECT_LE(active_level(), host_level());
  EXPECT_NE(kernels(Level::kScalar), nullptr);
  EXPECT_EQ(&active_kernels(), kernels(active_level()));
  for (const Level level : {Level::kAvx2, Level::kAvx512}) {
    if (level <= host_level()) {
      EXPECT_NE(kernels(level), nullptr);
    }
  }
}

TEST(SimdKernels, ResolveLevelKeepsToTheHost) {
  // DWI_SIMD is read from the environment: "scalar" forces scalar,
  // "avx2" caps at AVX2, and every other text keeps the host level.
  const char* const hostile[] = {"", "AVX2", "avx512", "garbage", "avx2 ",
                                 "Scalar", "avx", "avx22", "\xff"};
  for (const Level host : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    EXPECT_EQ(resolve_level("scalar", host), Level::kScalar);
    EXPECT_EQ(resolve_level("avx2", host), std::min(host, Level::kAvx2));
    for (const char* text : hostile) {
      EXPECT_EQ(resolve_level(text, host), host) << "'" << text << "'";
    }
  }
  // On this host each request resolves to a level it supports.
  const Level host = host_level();
  for (const char* text : {"scalar", "avx2", "", "AVX2", "avx512", "garbage"}) {
    EXPECT_LE(resolve_level(text, host), host) << "'" << text << "'";
  }
  EXPECT_EQ(resolve_level("", host), host);
}

/// Bitwise equality of the first n floats.
void expect_same_floats(const float* got, const float* ref, std::size_t n,
                        const std::string& what) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(ref[i]))
        << what << " i=" << i;
  }
}

/// A mask kernel's outputs: the returned count, the flag words and the
/// values (compacted or per lane, as the kernel writes them).
struct MaskOut {
  std::size_t set = 0;
  std::vector<std::uint64_t> flags;
  std::vector<float> values;

  explicit MaskOut(std::size_t n)
      : flags((n + 63) / 64, 0x5a5a5a5a5a5a5a5aull), values(n) {}
};

/// Bitwise equality of two mask-kernel outputs over the first
/// `values` entries (the set count for compacting kernels, every lane
/// for per-lane ones).
void expect_same(const MaskOut& got, const MaskOut& ref, std::size_t values,
                 const char* what, std::size_t n) {
  const std::string where = std::string(what) + " n=" + std::to_string(n);
  ASSERT_EQ(got.set, ref.set) << where;
  ASSERT_EQ(got.flags, ref.flags) << where;
  expect_same_floats(got.values.data(), ref.values.data(), values, where);
}

TEST(SimdKernels, MbAttemptBitIdentical) {
  // Counts past the vector kernels' 256-lane finish block too.
  for (const std::size_t n : counts({271, 513, 1029})) {
    const auto ua = uniform_words(n, 1);
    const auto ub = uniform_words(n, 2);
    // The oracle against the per-attempt function.
    MaskOut ref(n);
    ref.set = scalar().mb_attempt_block(ua.data(), ub.data(), n,
                                        ref.values.data(), ref.flags.data());
    for (std::size_t i = 0, j = 0; i < n; ++i) {
      const NormalAttempt a = marsaglia_bray_attempt(ua[i], ub[i]);
      ASSERT_EQ(bit_at(ref.flags.data(), i), a.valid) << "i=" << i;
      if (a.valid) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref.values[j++]),
                  std::bit_cast<std::uint32_t>(a.value));
      }
    }
    for (const Table& t : vector_tables()) {
      MaskOut got(n);
      got.set = t.k->mb_attempt_block(ua.data(), ub.data(), n,
                                      got.values.data(), got.flags.data());
      expect_same(got, ref, ref.set, t.name, n);
    }
  }
}

TEST(SimdKernels, MbFinishBitIdentical) {
  for (const std::size_t n : counts()) {
    // Pre-validated lanes: s strictly inside (0, 1), one subnormal s in
    // the second 16-lane group (the vector bodies' fallback case).
    const auto words = uniform_words(n, 3);
    std::vector<float> s(n), n0(n);
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = (static_cast<float>(words[i] >> 8) + 1.0f) / 16777218.0f;
      n0[i] = static_cast<float>(static_cast<std::int32_t>(words[i])) *
              5.0e-10f;
    }
    if (n > 21) s[21] = 0x1.8p-140f;
    std::vector<float> ref = n0;
    scalar().mb_finish_block(ref.data(), s.data(), n);
    for (const Table& t : vector_tables()) {
      std::vector<float> got = n0;
      t.k->mb_finish_block(got.data(), s.data(), n);
      expect_same_floats(got.data(), ref.data(), n,
                         std::string(t.name) + " n=" + std::to_string(n));
    }
  }
}

TEST(SimdKernels, IcdfCudaBitIdentical) {
  // uniform_words plants 0 and 0xffffffff in the first group: |x|
  // rounds to 1 there, the vector bodies' fallback case.
  for (const std::size_t n : counts()) {
    const auto u = uniform_words(n, 4);
    std::vector<float> ref(n);
    scalar().icdf_cuda_block(u.data(), n, ref.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(ref[i]),
                std::bit_cast<std::uint32_t>(normal_icdf_cuda(u[i])));
    }
    for (const Table& t : vector_tables()) {
      std::vector<float> got(n);
      t.k->icdf_cuda_block(u.data(), n, got.data());
      expect_same_floats(got.data(), ref.data(), n,
                         std::string(t.name) + " n=" + std::to_string(n));
    }
  }
}

TEST(SimdKernels, IcdfBitwiseBitIdentical) {
  // Integer datapath: check every octave depth the planted boundary
  // words reach, the invalid word (t_int == 0 after folding, i.e.
  // u = 0 and u = 0xffffffff), and both reflection halves.
  for (const std::size_t n : counts()) {
    auto u = uniform_words(n, 11);
    const std::uint32_t planted[] = {0u, 0xffffffffu, 1u, 2u, 3u,
                                     0x7fffffffu, 0x80000000u, 0x80000001u,
                                     0x00000007u, 0xfffffff8u};
    for (std::size_t i = 0; i < n && i < std::size(planted); ++i) {
      u[n - 1 - i] = planted[i];
    }
    MaskOut ref(n);
    ref.set = scalar().icdf_bitwise_block(u.data(), n, ref.values.data(),
                                          ref.flags.data());
    for (std::size_t i = 0, j = 0; i < n; ++i) {
      const IcdfResult r = normal_icdf_bitwise(u[i]);
      ASSERT_EQ(bit_at(ref.flags.data(), i), r.valid) << "i=" << i;
      if (r.valid) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref.values[j++]),
                  std::bit_cast<std::uint32_t>(r.value));
      }
    }
    for (const Table& t : vector_tables()) {
      MaskOut got(n);
      got.set = t.k->icdf_bitwise_block(u.data(), n, got.values.data(),
                                        got.flags.data());
      expect_same(got, ref, ref.set, t.name, n);
    }
  }
}

/// gamma_attempt_block against the per-lane attempt, then every vector
/// table against the scalar one.
void expect_gamma_attempt_identical(const std::vector<float>& n0,
                                    const std::vector<std::uint32_t>& u1,
                                    const GammaConstants& k) {
  const std::size_t n = n0.size();
  MaskOut ref(n);
  ref.set = scalar().gamma_attempt_block(n0.data(), u1.data(), n, k,
                                         ref.values.data(), ref.flags.data());
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const GammaAttempt g = gamma_attempt(n0[i], uint2float_open0(u1[i]), k);
    ASSERT_EQ(bit_at(ref.flags.data(), i), g.valid) << "i=" << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(ref.values[i]),
              std::bit_cast<std::uint32_t>(g.value))
        << "i=" << i;
    accepted += g.valid ? 1 : 0;
  }
  ASSERT_EQ(ref.set, accepted);
  for (const Table& t : vector_tables()) {
    MaskOut got(n);
    got.set = t.k->gamma_attempt_block(n0.data(), u1.data(), n, k,
                                       got.values.data(), got.flags.data());
    expect_same(got, ref, n, t.name, n);
  }
}

TEST(SimdKernels, GammaAttemptAndCorrectBitIdentical) {
  // Both the direct shape (α ≥ 1) and the boosted α < 1 path.
  for (const float alpha : {3.5f, 0.5f}) {
    const GammaConstants k = GammaConstants::make(alpha, 2.0f);
    for (const std::size_t n : counts()) {
      const auto words = uniform_words(n, 5);
      const auto u1 = uniform_words(n, 6);
      const auto u2 = uniform_words(n, 7);
      std::vector<float> n0(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Normal-ish candidates spanning accept/reject/v<=0 regions.
        n0[i] = static_cast<float>(static_cast<std::int32_t>(words[i])) *
                2.5e-9f;
      }
      expect_gamma_attempt_identical(n0, u1, k);
      if (!k.boosted) continue;
      // Correction over the accepted lanes, compacted; the correction
      // count runs over every count 0-40 too.
      std::vector<float> g(n);
      std::vector<std::uint64_t> ok((n + 63) / 64);
      scalar().gamma_attempt_block(n0.data(), u1.data(), n, k, g.data(),
                                   ok.data());
      std::vector<float> g_ref = g;
      for (std::size_t i = 0; i < n; ++i) {
        g_ref[i] = gamma_correct(g[i], uint2float_open0(u2[i]), k);
      }
      std::vector<float> got = g;
      scalar().gamma_correct_block(got.data(), u2.data(), n, k);
      expect_same_floats(got.data(), g_ref.data(), n, "scalar");
      for (const Table& t : vector_tables()) {
        got = g;
        t.k->gamma_correct_block(got.data(), u2.data(), n, k);
        expect_same_floats(got.data(), g_ref.data(), n,
                           std::string(t.name) + " n=" + std::to_string(n));
      }
    }
  }
}

TEST(SimdKernels, GammaCorrectEveryTableEntryAndTheClampBitIdentical) {
  // α = 0.01 raises u2 to the 100th power: t = 100 · log2 u2 runs from
  // about -2400 (u2 near 2^-24, clamped to 0 at t <= -151) up to 0, so
  // the exp2 table's 32 entries and the log's 16 segments are all read.
  // Counts leave 8- and 16-lane tails.
  const GammaConstants k = GammaConstants::make(0.01f, 2.0f);
  ASSERT_TRUE(k.boosted);
  for (const std::size_t n : {std::size_t{1021}, std::size_t{4099}}) {
    auto u2 = uniform_words(n, 31);
    for (std::size_t i = 4; i < n; i += 7) u2[i] >>= 20;  // u2 near 2^-24
    const auto g_words = uniform_words(n, 32);
    std::vector<float> g(n), g_ref(n);
    std::array<bool, 32> exp2_entry{};
    std::array<bool, 16> log_segment{};
    std::size_t clamped = 0;
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = 1.0f + uint2float_open0(g_words[i]);
      const float u = uint2float_open0(u2[i]);
      g_ref[i] = gamma_correct(g[i], u, k);
      log_segment[((std::bit_cast<std::uint32_t>(u) - fastmath_detail::kOff) >>
                   19) & 15] = true;
      const double t = static_cast<double>(k.inv_alpha) * fast_log2d(u);
      if (t <= -151.0) {
        ++clamped;
      } else {
        exp2_entry[static_cast<std::size_t>(
            static_cast<std::int64_t>(std::nearbyint(t * 32.0)) & 31)] = true;
      }
    }
    EXPECT_GT(clamped, n / 8);
    EXPECT_TRUE(std::all_of(exp2_entry.begin(), exp2_entry.end(),
                            [](bool b) { return b; }));
    EXPECT_TRUE(std::all_of(log_segment.begin(), log_segment.end(),
                            [](bool b) { return b; }));
    std::vector<float> got = g;
    scalar().gamma_correct_block(got.data(), u2.data(), n, k);
    expect_same_floats(got.data(), g_ref.data(), n, "scalar");
    for (const Table& t : vector_tables()) {
      got = g;
      t.k->gamma_correct_block(got.data(), u2.data(), n, k);
      expect_same_floats(got.data(), g_ref.data(), n,
                         std::string(t.name) + " n=" + std::to_string(n));
    }
  }
}

TEST(SimdKernels, GammaAttemptEdgeLanesBitIdentical) {
  // The lanes the vector predicate treats specially, at counts that are
  // not a multiple of 8 and past its 512-lane miss block: t <= 0, the
  // smallest t > 0 near x = -1/c (v = t³ tiny but still normal: 1 + c·x
  // cannot land closer to 0 than about 2^-24), huge x, infinite x
  // (v = inf: the exact test's fallback), NaN, and groups where every
  // lane misses the squeeze (u1 near 1, so the exact test decides all
  // of them).
  const GammaConstants k = GammaConstants::from_sector_variance(1.39f);
  const float t_zero = -1.0f / k.c;  // 1 + c·x rounds to about 0 here
  for (const std::size_t n : {std::size_t{5}, std::size_t{8}, std::size_t{13},
                              std::size_t{64}, std::size_t{517},
                              std::size_t{1031}}) {
    const auto words = uniform_words(n, 21);
    auto u1 = uniform_words(n, 22);
    std::vector<float> n0(n);
    for (std::size_t i = 0; i < n; ++i) {
      n0[i] = static_cast<float>(static_cast<std::int32_t>(words[i])) *
              1.5e-9f;
      switch (i % 11) {
        case 0: n0[i] = -6.0f; break;                        // t < 0
        case 1: n0[i] = t_zero; break;                       // t ~ 0
        case 2: n0[i] = std::nextafter(t_zero, 0.0f); break;  // tiny t > 0
        case 3: n0[i] = std::nextafter(std::nextafter(t_zero, 0.0f), 0.0f);
                break;
        case 4: u1[i] = 0xffffff00u; break;                  // squeeze miss
        default: break;
      }
    }
    if (n > 16) {
      // One all-miss group and one huge-x group.
      for (std::uint32_t i = 8; i < 16; ++i) u1[i] = 0xfffffe00u - 512u * i;
      n0[n - 1] = std::numeric_limits<float>::infinity();
      n0[n - 2] = std::numeric_limits<float>::quiet_NaN();
      n0[n - 3] = 3.0e12f;
    }
    expect_gamma_attempt_identical(n0, u1, k);
  }
  // Every lane a squeeze miss, with v normal.
  std::vector<float> n0(64, 2.0f);
  std::vector<std::uint32_t> u1(64, 0xfffff000u);
  expect_gamma_attempt_identical(n0, u1, k);
  // Counts 0-40, each with every lane a squeeze miss and, from 3 lanes
  // on, one exact-test group holding an abnormal v (x = inf: v = inf)
  // beside normal ones.
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<float> x(n, 1.5f);
    std::vector<std::uint32_t> u(n, 0xfffff800u);
    for (std::size_t i = 0; i < n; ++i) x[i] += 0.01f * static_cast<float>(i);
    if (n >= 3) x[n / 2] = std::numeric_limits<float>::infinity();
    expect_gamma_attempt_identical(x, u, k);
  }
}

TEST(SimdKernels, CompactBlockBitIdentical) {
  for (const std::size_t n : counts({1000})) {
    const auto words = uniform_words(n, 31);
    const auto bits = uniform_words(2 * ((n + 63) / 64), 32);
    std::vector<float> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = static_cast<float>(words[i]);
    }
    for (const int density : {0, 1, 2, 3}) {
      // Empty, sparse, half and full keep masks.
      std::vector<std::uint64_t> keep((n + 63) / 64);
      for (std::size_t w = 0; w < keep.size(); ++w) {
        const std::uint64_t r =
            (std::uint64_t{bits[2 * w]} << 32) | bits[2 * w + 1];
        keep[w] = density == 0   ? 0
                  : density == 1 ? r & (r >> 7) & (r >> 13)
                  : density == 2 ? r
                                 : ~std::uint64_t{0};
      }
      std::vector<float> want;
      for (std::size_t i = 0; i < n; ++i) {
        if (bit_at(keep.data(), i)) want.push_back(in[i]);
      }
      std::vector<Table> tables = vector_tables();
      tables.insert(tables.begin(), {"scalar", &scalar()});
      for (const Table& t : tables) {
        std::vector<float> got = in;  // in place
        ASSERT_EQ(t.k->compact_block(got.data(), keep.data(), n, got.data()),
                  want.size());
        got.resize(want.size());
        ASSERT_EQ(got, want) << t.name << " n=" << n << " density=" << density;
      }
    }
  }
}

/// MT(521), MT19937, tiny (n - m = 1: scalar at every width) and mid
/// (MT19937's shape, n = 61, m = 23, with segment boundaries that no 8-
/// or 16-word step lands on and a part step at the end of each pass).
std::vector<MtParams> mt_geometries() {
  MtParams tiny = mt521_params();
  tiny.n = 9;
  MtParams mid = mt19937_params();
  mid.n = 61;
  mid.m = 23;
  return {mt521_params(), mt19937_params(), tiny, mid};
}

/// The classic Mersenne-Twister formulation, written out here: raw[b] is
/// the state after b twist passes of the recurrence with explicit mod-n
/// indexing, and tempered holds each pass's n outputs under the classic
/// tempering, pass after pass.
struct MtClassic {
  std::vector<std::vector<std::uint32_t>> raw;
  std::vector<std::uint32_t> tempered;
};

MtClassic mt_classic(const MtParams& p, std::size_t passes) {
  const std::uint32_t lm = p.lower_mask();
  const std::uint32_t um = ~lm;
  MtClassic out{{uniform_words(p.n, 12)}, {}};
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::vector<std::uint32_t> s = out.raw.back();
    for (unsigned i = 0; i < p.n; ++i) {
      const std::uint32_t x = (s[i] & um) | (s[(i + 1) % p.n] & lm);
      s[i] = s[(i + p.m) % p.n] ^ (x >> 1) ^ ((-(x & 1u)) & p.a);
    }
    for (std::uint32_t y : s) {
      y ^= (y >> p.u) & p.d;
      y ^= (y << p.s) & p.b;
      y ^= (y << p.t) & p.c;
      out.tempered.push_back(y ^ (y >> p.l));
    }
    out.raw.push_back(s);
  }
  return out;
}

/// The scalar table, then each vector level's and the dispatched one.
std::vector<Table> mt_tables() {
  std::vector<Table> tables = vector_tables();
  tables.insert(tables.begin(), {"scalar", &scalar()});
  return tables;
}

TEST(SimdKernels, MtTwistBitIdentical) {
  // One block per call, five consecutive calls on the same state: after
  // each, the state must be the classic recurrence's. In-place state
  // carries any lane slip into the next pass, so several passes amplify
  // it. Each pass crosses both segment boundaries: i = n - m, where the
  // middle word wraps onto the rewritten prefix, and i = n - 1, whose
  // successor is the rewritten s[0].
  constexpr std::size_t kPasses = 5;
  for (const MtParams& p : mt_geometries()) {
    const MtClassic want = mt_classic(p, kPasses);
    for (const Table& t : mt_tables()) {
      auto state = want.raw.front();
      std::vector<std::uint32_t> got(p.n);
      for (std::size_t pass = 1; pass <= kPasses; ++pass) {
        t.k->mt_generate_block(state.data(), p.n, p, got.data());
        ASSERT_EQ(state, want.raw[pass])
            << t.name << " n=" << p.n << " pass=" << pass;
      }
    }
  }
}

TEST(SimdKernels, MtTemperBitIdentical) {
  // The same five one-block calls: each call's outputs must be the
  // classic tempering of the classic state. uniform_words plants 0,
  // 0xffffffff, 0x80000000 and 1 in the starting state.
  constexpr std::size_t kPasses = 5;
  for (const MtParams& p : mt_geometries()) {
    const MtClassic want = mt_classic(p, kPasses);
    for (const Table& t : mt_tables()) {
      auto state = want.raw.front();
      std::vector<std::uint32_t> got(p.n);
      for (std::size_t pass = 0; pass < kPasses; ++pass) {
        t.k->mt_generate_block(state.data(), p.n, p, got.data());
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               want.tempered.begin() +
                                   static_cast<std::ptrdiff_t>(pass * p.n)))
            << t.name << " n=" << p.n << " pass=" << pass;
      }
    }
  }
}

TEST(SimdKernels, MtGenerateBlockBitIdentical) {
  // Runs of whole blocks in one call, then one more block continuing
  // the state, against the classic recurrence and tempering. Each run
  // must leave the last n raw words as the state. For MT(521) the
  // register window ends on a part step whenever 17·blocks is not a
  // multiple of 8.
  for (const MtParams& p : mt_geometries()) {
    const std::size_t max_blocks = p.n == 17 ? 9 : 4;
    const MtClassic want = mt_classic(p, max_blocks + 1);
    for (const Table& t : mt_tables()) {
      for (std::size_t blocks = 1; blocks <= max_blocks; ++blocks) {
        SCOPED_TRACE(std::string(t.name) + " n=" + std::to_string(p.n) +
                     " blocks=" + std::to_string(blocks));
        auto state = want.raw.front();
        std::vector<std::uint32_t> got(blocks * p.n);
        t.k->mt_generate_block(state.data(), got.size(), p, got.data());
        ASSERT_TRUE(
            std::equal(got.begin(), got.end(), want.tempered.begin()));
        ASSERT_EQ(state, want.raw[blocks]);
        got.resize(p.n);
        t.k->mt_generate_block(state.data(), p.n, p, got.data());
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               want.tempered.begin() +
                                   static_cast<std::ptrdiff_t>(blocks * p.n)));
        ASSERT_EQ(state, want.raw[blocks + 1]);
      }
    }
  }
}

TEST(SimdKernels, PhiloxBlockBitIdentical) {
  const std::uint32_t key[2] = {0xdeadbeefu, 0x12345678u};
  // Start counters exercising: the ordinary case; a wrap of the low word
  // inside an 8-block group; one on an 8-block boundary inside a
  // 16-block group; one inside both; one exactly on a 16-block group
  // boundary; and a cascading carry through words 1 and 2.
  const std::uint32_t starts[][4] = {
      {0u, 0u, 0u, 0u},
      {0xfffffff5u, 0u, 0u, 0u},
      {0xfffffff8u, 0x7u, 0u, 0u},
      {0xfffffffcu, 0x1u, 0u, 0u},
      {0xfffffff0u, 0x9u, 0u, 0u},
      {0xffffffe0u, 0u, 0x5u, 0u},
      {0xfffffffeu, 0xffffffffu, 0xffffffffu, 0u},
  };
  for (const auto& start : starts) {
    for (const std::size_t nblocks : counts()) {
      SCOPED_TRACE("start[0]=" + std::to_string(start[0]) +
                   " nblocks=" + std::to_string(nblocks));
      std::vector<std::uint32_t> ref(nblocks * 4);
      scalar().philox_block(start, key, nblocks, ref.data());
      // Oracle the oracle: each block equals a direct philox4x32 call
      // on the manually incremented counter.
      std::array<std::uint32_t, 4> c = {start[0], start[1], start[2],
                                        start[3]};
      for (std::size_t b = 0; b < nblocks; ++b) {
        const auto direct = philox4x32(c, {key[0], key[1]});
        for (std::size_t w = 0; w < 4; ++w) {
          ASSERT_EQ(ref[b * 4 + w], direct[w]) << "b=" << b << " w=" << w;
        }
        for (int w = 0; w < 4; ++w) {
          if (++c[static_cast<std::size_t>(w)] != 0u) break;
        }
      }
      for (const Table& t : vector_tables()) {
        std::vector<std::uint32_t> got(nblocks * 4);
        t.k->philox_block(start, key, nblocks, got.data());
        ASSERT_EQ(got, ref) << t.name;
      }
    }
  }
}

TEST(SimdKernels, Mt64RefillBitIdentical) {
  // Four refills in a row from a random state. The scalar table is
  // checked against the classic recurrence on the whole raw sequence
  // (x[j+n] = x[j+m] ^ twist(x[j], x[j+1])); the others against it.
  using namespace mt64;
  std::mt19937_64 seed_rng(29);
  std::vector<std::uint64_t> x(kN);
  for (auto& w : x) w = seed_rng();
  const std::vector<Table> tables = vector_tables();
  std::vector<std::uint64_t> ref(x);
  std::vector<std::vector<std::uint64_t>> got(tables.size(), x);
  std::vector<std::uint64_t> ref_block(kN), got_block(kN);
  for (std::size_t refill = 0; refill < 4; ++refill) {
    for (std::size_t j = refill * kN; j < (refill + 1) * kN; ++j) {
      const std::uint64_t y = (x[j] & kUpperMask) | (x[j + 1] & kLowerMask);
      x.push_back(x[j + kM] ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0));
    }
    scalar().mt64_refill(ref.data(), ref_block.data());
    ASSERT_TRUE(std::equal(ref.begin(), ref.end(), x.end() - kN))
        << "refill " << refill;
    for (std::size_t j = 0; j < kN; ++j) {
      std::uint64_t z = ref[j];
      z ^= (z >> 29) & 0x5555555555555555ull;
      z ^= (z << 17) & 0x71d67fffeda60000ull;
      z ^= (z << 37) & 0xfff7eee000000000ull;
      z ^= z >> 43;
      ASSERT_EQ(ref_block[j], z) << "refill " << refill << " word " << j;
    }
    for (std::size_t t = 0; t < tables.size(); ++t) {
      tables[t].k->mt64_refill(got[t].data(), got_block.data());
      ASSERT_EQ(got[t], ref) << tables[t].name << " refill " << refill;
      ASSERT_EQ(got_block, ref_block) << tables[t].name << " refill " << refill;
    }
  }
}

/// A lane of the first-draw scan: its first word and its λ.
struct ScanLane {
  std::uint64_t word;
  double lambda;
};

/// Every lane's verdict from every start, for counts 0 to 40 and to the
/// end: the scalar table against the definition, the others against it.
void expect_scan_matches(const std::vector<ScanLane>& lanes) {
  std::vector<std::uint64_t> words;
  std::vector<double> lambda;
  for (const ScanLane& l : lanes) {
    words.push_back(l.word);
    lambda.push_back(l.lambda);
  }
  const auto unsettled = [&](std::size_t i) {
    return lambda[i] >= kPoissonRejectionMean ||
           canonical_double(words[i]) > kPoissonFirstDrawBound - lambda[i];
  };
  const std::vector<Table> tables = vector_tables();
  for (std::size_t start = 0; start < lanes.size(); ++start) {
    const std::size_t rest = lanes.size() - start;
    for (std::size_t count = 0; count <= rest; ++count) {
      if (count > 40 && count != rest) continue;
      std::size_t want = count;
      for (std::size_t i = 0; i < count; ++i) {
        if (unsettled(start + i)) {
          want = i;
          break;
        }
      }
      const std::uint64_t* w = words.data() + start;
      const double* lam = lambda.data() + start;
      ASSERT_EQ(scalar().poisson_first_draw_scan(w, lam, count), want)
          << "start=" << start << " count=" << count;
      for (const Table& t : tables) {
        ASSERT_EQ(t.k->poisson_first_draw_scan(w, lam, count), want)
            << t.name << " start=" << start << " count=" << count;
      }
    }
  }
}

TEST(SimdKernels, PoissonFirstDrawScanBitIdentical) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;  // u = 0.5
  // λ = 0.5 − 2^-50 puts bound − λ at exactly 0.5.
  constexpr double kHalfEdge = 0.5 - 0x1p-50;
  // λ = −7·2^-53 puts bound − λ at the largest double below 1, so only
  // the clamp of u settles a top word.
  constexpr double kClampEdge = -7 * 0x1p-53;
  static_assert(kPoissonFirstDrawBound - kClampEdge == 0x1.fffffffffffffp-1);
  std::mt19937_64 rng(5);
  const auto w = [&rng] { return rng(); };
  const std::vector<ScanLane> edges = {
      {w(), 0.0},
      {w(), 12.0},                          // the switch itself
      {0, std::nextafter(12.0, 0.0)},       // u = 0 > bound − λ < 0
      {w(), 25.0},
      {w(), kInf},
      {w(), kNaN},                          // settles
      {kTop, kNaN},
      {w(), -kInf},                         // bound − λ = +inf: settles
      {w(), -1.0},
      {w(), -1e-17},
      {kTop, -1e-17},
      {kHalf, kHalfEdge},                   // u == bound − λ: settles
      {kHalf + 2048, kHalfEdge},            // next u up: unsettled
      {kHalf - 1024, kHalfEdge},
      {0, kPoissonFirstDrawBound},          // u = 0 == bound − λ
      {kTop, kClampEdge},                   // clamped u == bound − λ
      {kTop - 1023, kClampEdge},
      {kTop - 1024, kClampEdge},            // below the clamp
      {kTop - 2048, 0.0},
      {kTop, 0.0},                          // clamped u > bound
      {w(), 1e300},
      {w(), 1e-300},
      {w(), 0.9},
      {w(), 0.0145},
      {w(), -0.0}};
  expect_scan_matches(edges);

  // A long run where most lanes settle, as on a CreditRisk+ book: the
  // stops fall on every position within a 4- and an 8-lane group.
  std::vector<ScanLane> mostly;
  std::uniform_real_distribution<double> small(0.0, 0.05);
  for (std::size_t i = 0; i < 301; ++i) {
    mostly.push_back({w(), i % 37 == 5 ? 0.999 : small(rng)});
    if (i % 53 == 7) mostly.back().word = kTop;
  }
  expect_scan_matches(mostly);

  // Every lane unsettled.
  std::vector<ScanLane> none(23);
  for (auto& l : none) l = {w(), 12.0 + static_cast<double>(rng() % 40)};
  expect_scan_matches(none);
}

TEST(SimdKernels, IntensityBlockBitIdentical) {
  // N obligors × K sectors, float and double rows, N over every count
  // 0-40 and 16-lane multiples ± 1. The scalar table is checked against
  // λ_i = p_i · (w_i0 + Σ_k w_ik S_k) built per obligor; the others
  // against it, with a guard word after the output. Rows hold zeros,
  // tiny and huge draws, and one row with a NaN and one with an infinity
  // (one special value per row, so no sum meets two NaNs).
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  constexpr std::size_t kRows = 9;
  constexpr double kGuard = -12345.0;
  const std::vector<Table> tables = vector_tables();
  for (const std::size_t N : counts()) {
    for (const std::size_t K : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE("N=" + std::to_string(N) + " K=" + std::to_string(K));
      std::vector<double> p(N), w0(N), weights(K * N);
      for (std::size_t i = 0; i < N; ++i) {
        p[i] = i % 5 == 0 ? 1.0 : unit(rng) * 0.2;
        w0[i] = i % 7 == 3 ? -1e-10 : unit(rng);
        for (std::size_t k = 0; k < K; ++k) {
          weights[k * N + i] = i % 4 == 1 && k == 0 ? 0.0 : unit(rng) / static_cast<double>(K);
        }
      }
      const IntensityBook book{N, K, p.data(), w0.data(), weights.data()};
      std::vector<double> rows(kRows * K);
      for (double& r : rows) r = -std::log(unit(rng)) * 1.39;
      rows[0] = 0.0;
      rows[K * 1 + K - 1] = 1e-300;
      rows[K * 2] = 1e300;
      rows[K * 3 + K / 2] = std::numeric_limits<double>::quiet_NaN();
      rows[K * 4] = std::numeric_limits<double>::infinity();
      std::vector<float> frows(rows.begin(), rows.end());
      frows[K * 2] = 3e38f;

      const auto check = [&](const auto& draws, auto entry) {
        std::vector<double> want(kRows * N);
        for (std::size_t s = 0; s < kRows; ++s) {
          for (std::size_t i = 0; i < N; ++i) {
            double f = w0[i];
            for (std::size_t k = 0; k < K; ++k) {
              f += weights[k * N + i] * static_cast<double>(draws[s * K + k]);
            }
            want[s * N + i] = p[i] * f;
          }
        }
        std::vector<double> got(kRows * N + 1);
        const auto same = [&](const char* what, const Kernels& k) {
          std::fill(got.begin(), got.end(), kGuard);
          (k.*entry)(book, draws.data(), kRows, got.data());
          for (std::size_t j = 0; j < want.size(); ++j) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                      std::bit_cast<std::uint64_t>(want[j]))
                << what << " lane " << j << ": " << got[j] << " vs "
                << want[j];
          }
          ASSERT_EQ(got.back(), kGuard) << what << " wrote past the rows";
        };
        same("scalar", scalar());
        for (const Table& t : tables) same(t.name, *t.k);
      };
      check(rows, &Kernels::intensity_block_f64);
      if (HasFatalFailure()) return;
      check(frows, &Kernels::intensity_block_f32);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace dwi::rng::simd
