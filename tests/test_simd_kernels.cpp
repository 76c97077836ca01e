// Bit-identity of the vectorized block kernels against their scalar
// oracles (the contract simd_kernels.h declares). Each kernel is
// checked two ways: the dispatched entry point against the scalar
// reference (meaningful on AVX2 hosts, trivially true elsewhere), and
// — when the AVX2 translation unit is compiled and the host supports
// it — the _avx2 variant directly, so a DWI_SIMD=scalar environment
// cannot silently skip the interesting comparison. Counts straddle
// vector-width boundaries (8/16-lane multiples ± 1) and the Philox
// kernel is driven across 32-bit counter-word carries, the case the
// vector path must hand back to the scalar oracle.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <vector>

#include "common/bits.h"
#include "rng/gamma.h"
#include "rng/icdf_bitwise.h"
#include "rng/mersenne_twister.h"
#include "rng/mt19937_64.h"
#include "rng/normal.h"
#include "rng/philox.h"
#include "rng/simd_kernels.h"

namespace dwi::rng::simd {
namespace {

bool avx2_testable() {
#if defined(DWI_SIMD_AVX2) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
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

const std::size_t kCounts[] = {1, 7, 8, 9, 16, 31, 255, 1024};

TEST(SimdKernels, ScalarLevelAlwaysAvailable) {
  EXPECT_NO_THROW((void)active_level());
  EXPECT_STREQ(to_string(Level::kScalar), "scalar");
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
  ASSERT_EQ(got.set, ref.set) << what << " n=" << n;
  ASSERT_EQ(got.flags, ref.flags) << what << " n=" << n;
  for (std::size_t i = 0; i < values; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.values[i]),
              std::bit_cast<std::uint32_t>(ref.values[i]))
        << what << " n=" << n << " i=" << i;
  }
}

TEST(SimdKernels, MbAttemptBitIdentical) {
  // Counts past the AVX2 kernel's 256-lane finish block too.
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{64},
                              std::size_t{255}, std::size_t{257},
                              std::size_t{1029}}) {
    const auto ua = uniform_words(n, 1);
    const auto ub = uniform_words(n, 2);
    // The oracle against the per-attempt function.
    MaskOut ref(n);
    ref.set = mb_attempt_block_scalar(ua.data(), ub.data(), n,
                                      ref.values.data(), ref.flags.data());
    for (std::size_t i = 0, j = 0; i < n; ++i) {
      const NormalAttempt a = marsaglia_bray_attempt(ua[i], ub[i]);
      ASSERT_EQ(bit_at(ref.flags.data(), i), a.valid) << "i=" << i;
      if (a.valid) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref.values[j++]),
                  std::bit_cast<std::uint32_t>(a.value));
      }
    }
    MaskOut got(n);
    got.set = mb_attempt_block(ua.data(), ub.data(), n, got.values.data(),
                               got.flags.data());
    expect_same(got, ref, ref.set, "dispatched", n);
#if defined(DWI_SIMD_AVX2)
    if (avx2_testable()) {
      MaskOut avx(n);
      avx.set = mb_attempt_block_avx2(ua.data(), ub.data(), n,
                                      avx.values.data(), avx.flags.data());
      expect_same(avx, ref, ref.set, "avx2", n);
    }
#endif
  }
}

TEST(SimdKernels, MbFinishBitIdentical) {
  for (const std::size_t n : kCounts) {
    // Pre-validated lanes: s strictly inside (0, 1).
    const auto words = uniform_words(n, 3);
    std::vector<float> s(n), n0(n);
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = (static_cast<float>(words[i] >> 8) + 1.0f) / 16777218.0f;
      n0[i] = static_cast<float>(static_cast<std::int32_t>(words[i])) *
              5.0e-10f;
    }
    std::vector<float> ref = n0, got = n0;
    mb_finish_block_scalar(ref.data(), s.data(), n);
    mb_finish_block(got.data(), s.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(ref[i]))
          << "n=" << n << " i=" << i;
    }
#if defined(DWI_SIMD_AVX2)
    if (avx2_testable()) {
      got = n0;
      mb_finish_block_avx2(got.data(), s.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(ref[i]));
      }
    }
#endif
  }
}

TEST(SimdKernels, IcdfCudaBitIdentical) {
  for (const std::size_t n : kCounts) {
    const auto u = uniform_words(n, 4);
    std::vector<float> ref(n), got(n);
    icdf_cuda_block_scalar(u.data(), n, ref.data());
    icdf_cuda_block(u.data(), n, got.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(ref[i]))
          << "n=" << n << " i=" << i;
    }
#if defined(DWI_SIMD_AVX2)
    if (avx2_testable()) {
      icdf_cuda_block_avx2(u.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(ref[i]));
      }
    }
#endif
  }
}

TEST(SimdKernels, IcdfBitwiseBitIdentical) {
  // Integer datapath: check every octave depth the planted boundary
  // words reach, the invalid word (t_int == 0 after folding, i.e.
  // u = 0 and u = 0xffffffff), and both reflection halves.
  for (const std::size_t n : kCounts) {
    auto u = uniform_words(n, 11);
    const std::uint32_t planted[] = {0u, 0xffffffffu, 1u, 2u, 3u,
                                     0x7fffffffu, 0x80000000u, 0x80000001u,
                                     0x00000007u, 0xfffffff8u};
    for (std::size_t i = 0; i < n && i < std::size(planted); ++i) {
      u[n - 1 - i] = planted[i];
    }
    MaskOut ref(n);
    ref.set = icdf_bitwise_block_scalar(u.data(), n, ref.values.data(),
                                        ref.flags.data());
    for (std::size_t i = 0, j = 0; i < n; ++i) {
      const IcdfResult r = normal_icdf_bitwise(u[i]);
      ASSERT_EQ(bit_at(ref.flags.data(), i), r.valid) << "i=" << i;
      if (r.valid) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref.values[j++]),
                  std::bit_cast<std::uint32_t>(r.value));
      }
    }
    MaskOut got(n);
    got.set = icdf_bitwise_block(u.data(), n, got.values.data(),
                                 got.flags.data());
    expect_same(got, ref, ref.set, "dispatched", n);
#if defined(DWI_SIMD_AVX2)
    if (avx2_testable()) {
      MaskOut avx(n);
      avx.set = icdf_bitwise_block_avx2(u.data(), n, avx.values.data(),
                                        avx.flags.data());
      expect_same(avx, ref, ref.set, "avx2", n);
    }
#endif
  }
}

/// gamma_attempt_block against the per-lane attempt, then the
/// dispatched and AVX2 variants against the scalar one.
void expect_gamma_attempt_identical(const std::vector<float>& n0,
                                    const std::vector<std::uint32_t>& u1,
                                    const GammaConstants& k) {
  const std::size_t n = n0.size();
  MaskOut ref(n);
  ref.set = gamma_attempt_block_scalar(n0.data(), u1.data(), n, k,
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
  MaskOut got(n);
  got.set = gamma_attempt_block(n0.data(), u1.data(), n, k, got.values.data(),
                                got.flags.data());
  expect_same(got, ref, n, "dispatched", n);
#if defined(DWI_SIMD_AVX2)
  if (avx2_testable()) {
    MaskOut avx(n);
    avx.set = gamma_attempt_block_avx2(n0.data(), u1.data(), n, k,
                                       avx.values.data(), avx.flags.data());
    expect_same(avx, ref, n, "avx2", n);
  }
#endif
}

TEST(SimdKernels, GammaAttemptAndCorrectBitIdentical) {
  // Both the direct shape (α ≥ 1) and the boosted α < 1 path.
  for (const float alpha : {3.5f, 0.5f}) {
    const GammaConstants k = GammaConstants::make(alpha, 2.0f);
    for (const std::size_t n : kCounts) {
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
      if (k.boosted) {
        // Correction over the accepted lanes, compacted.
        std::vector<float> g(n);
        std::vector<std::uint64_t> ok((n + 63) / 64);
        const std::size_t acc = gamma_attempt_block_scalar(
            n0.data(), u1.data(), n, k, g.data(), ok.data());
        compact_block_scalar(g.data(), ok.data(), n, g.data());
        g.resize(acc);
        std::vector<float> g_ref = g, g_got = g;
        gamma_correct_block_scalar(g_ref.data(), u2.data(), acc, k);
        gamma_correct_block(g_got.data(), u2.data(), acc, k);
        for (std::size_t i = 0; i < acc; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(g_got[i]),
                    std::bit_cast<std::uint32_t>(g_ref[i]));
        }
#if defined(DWI_SIMD_AVX2)
        if (avx2_testable()) {
          g_got = g;
          gamma_correct_block_avx2(g_got.data(), u2.data(), acc, k);
          for (std::size_t i = 0; i < acc; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(g_got[i]),
                      std::bit_cast<std::uint32_t>(g_ref[i]));
          }
        }
#endif
      }
    }
  }
}

TEST(SimdKernels, GammaAttemptEdgeLanesBitIdentical) {
  // The lanes the AVX2 predicate treats specially, at counts that are
  // not a multiple of 8 and past its 512-lane miss block: t <= 0, the
  // smallest t > 0 near x = -1/c (v = t³ tiny but still normal: 1 + c·x
  // cannot land closer to 0 than about 2^-24), huge x, infinite x
  // (v = inf: the exact test's scalar fallback), NaN, and groups where
  // every lane misses the squeeze (u1 near 1, so the exact test decides
  // all of them).
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
}

TEST(SimdKernels, CompactBlockBitIdentical) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{1000}}) {
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
      std::vector<float> ref(n);
      ASSERT_EQ(compact_block_scalar(in.data(), keep.data(), n, ref.data()),
                want.size());
      ref.resize(want.size());
      ASSERT_EQ(ref, want) << "n=" << n;
      std::vector<float> got = in;  // in place
      ASSERT_EQ(compact_block(got.data(), keep.data(), n, got.data()),
                want.size());
      got.resize(want.size());
      ASSERT_EQ(got, want) << "n=" << n;
#if defined(DWI_SIMD_AVX2)
      if (avx2_testable()) {
        got = in;
        ASSERT_EQ(compact_block_avx2(got.data(), keep.data(), n, got.data()),
                  want.size());
        got.resize(want.size());
        ASSERT_EQ(got, want) << "avx2 n=" << n << " density=" << density;
      }
#endif
    }
  }
}

TEST(SimdKernels, MtTemperBitIdentical) {
  for (const MtParams& p : {mt521_params(), mt19937_params()}) {
    for (const std::size_t n : kCounts) {
      const auto state = uniform_words(n, 8);
      std::vector<std::uint32_t> ref(n), got(n);
      mt_temper_block_scalar(state.data(), n, p, ref.data());
#if defined(DWI_SIMD_AVX2)
      if (avx2_testable()) {
        mt_temper_block_avx2(state.data(), n, p, got.data());
        ASSERT_EQ(got, ref) << "n=" << n;
      }
#endif
    }
  }
}

TEST(SimdKernels, MtTwistBitIdentical) {
  // The scalar oracle is itself checked against the classic
  // word-at-a-time recurrence, then the AVX2 variant must
  // match it over several consecutive passes (in-place state carries
  // divergence forward, so multiple passes amplify any lane slip).
  MtParams tiny = mt521_params();
  tiny.n = 9;  // forces the AVX2 variant's scalar fallback (n - m < 8)
  for (const MtParams& p : {mt521_params(), mt19937_params(), tiny}) {
    const std::uint32_t lm = p.lower_mask();
    const std::uint32_t um = ~lm;
    auto ref = uniform_words(p.n, 12);
    auto via_avx2 = ref;
    for (int pass = 0; pass < 5; ++pass) {
      // Classic formulation with explicit mod-n indexing.
      std::vector<std::uint32_t> classic(ref.begin(), ref.end());
      for (unsigned i = 0; i < p.n; ++i) {
        const std::uint32_t x =
            (classic[i] & um) | (classic[(i + 1) % p.n] & lm);
        classic[i] =
            classic[(i + p.m) % p.n] ^ (x >> 1) ^ ((-(x & 1u)) & p.a);
      }
      mt_twist_block_scalar(ref.data(), p);
      ASSERT_EQ(std::vector<std::uint32_t>(ref.begin(), ref.end()), classic)
          << "n=" << p.n << " pass=" << pass;
#if defined(DWI_SIMD_AVX2)
      if (avx2_testable()) {
        mt_twist_block_avx2(via_avx2.data(), p);
        ASSERT_EQ(via_avx2, ref) << "avx2 n=" << p.n << " pass=" << pass;
      }
#endif
    }
  }
}

TEST(SimdKernels, MtGenerateBlockBitIdentical) {
  // Whole-block runs of 1 to 9 blocks: for MT(521) the AVX2 register
  // path ends on a part step whenever 17·blocks is not a multiple of 8.
  // The scalar variant is checked against the classic recurrence and
  // the state must come back as the last n raw words.
  for (const MtParams& p : {mt521_params(), mt19937_params()}) {
    const std::uint32_t lm = p.lower_mask();
    for (std::size_t blocks = 1; blocks <= (p.n == 17 ? 9u : 2u); ++blocks) {
      const std::size_t count = blocks * p.n;
      const auto start = uniform_words(p.n, 40 + static_cast<std::uint32_t>(blocks));
      std::vector<std::uint32_t> x(start);  // the raw sequence
      for (std::size_t j = 0; j < count; ++j) {
        const std::uint32_t y = (x[j] & ~lm) | (x[j + 1] & lm);
        x.push_back(x[j + p.m] ^ (y >> 1) ^ ((-(y & 1u)) & p.a));
      }
      std::vector<std::uint32_t> want(count);
      mt_temper_block_scalar(x.data() + p.n, count, p, want.data());
      const std::vector<std::uint32_t> want_state(x.end() - p.n, x.end());

      auto state = start;
      std::vector<std::uint32_t> got(count);
      mt_generate_block_scalar(state.data(), count, p, got.data());
      ASSERT_EQ(got, want) << "n=" << p.n << " blocks=" << blocks;
      ASSERT_EQ(state, want_state);
      state = start;
      mt_generate_block(state.data(), count, p, got.data());
      ASSERT_EQ(got, want) << "dispatched n=" << p.n << " blocks=" << blocks;
      ASSERT_EQ(state, want_state);
#if defined(DWI_SIMD_AVX2)
      if (avx2_testable()) {
        state = start;
        mt_generate_block_avx2(state.data(), count, p, got.data());
        ASSERT_EQ(got, want) << "avx2 n=" << p.n << " blocks=" << blocks;
        ASSERT_EQ(state, want_state);
      }
#endif
    }
  }
}

TEST(SimdKernels, PhiloxBlockBitIdentical) {
  const std::uint32_t key[2] = {0xdeadbeefu, 0x12345678u};
  // Start counters exercising: the ordinary case, a wrap of the low
  // word mid-run (the AVX2 kernel's scalar-fallback group), a wrap
  // landing exactly on a group boundary, and a cascading carry through
  // words 1 and 2.
  const std::uint32_t starts[][4] = {
      {0u, 0u, 0u, 0u},
      {0xfffffff5u, 0u, 0u, 0u},
      {0xfffffff8u, 0x7u, 0u, 0u},
      {0xfffffffeu, 0xffffffffu, 0xffffffffu, 0u},
  };
  for (const auto& start : starts) {
    for (const std::size_t nblocks :
         {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
          std::size_t{40}}) {
      std::vector<std::uint32_t> ref(nblocks * 4), got(nblocks * 4);
      philox_block_scalar(start, key, nblocks, ref.data());
      philox_block(start, key, nblocks, got.data());
      ASSERT_EQ(got, ref) << "start[0]=" << start[0]
                          << " nblocks=" << nblocks;
#if defined(DWI_SIMD_AVX2)
      if (avx2_testable()) {
        philox_block_avx2(start, key, nblocks, got.data());
        ASSERT_EQ(got, ref) << "avx2 start[0]=" << start[0]
                            << " nblocks=" << nblocks;
      }
#endif
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
    }
  }
}

TEST(SimdKernels, Mt64RefillBitIdentical) {
  // Four refills in a row from a random state. The scalar variant is
  // checked against the classic recurrence on the whole raw sequence
  // (x[j+n] = x[j+m] ^ twist(x[j], x[j+1])); AVX2 and dispatched
  // against it.
  using namespace mt64;
  std::mt19937_64 seed_rng(29);
  std::vector<std::uint64_t> x(kN);
  for (auto& w : x) w = seed_rng();
  std::vector<std::uint64_t> ref(x), got(x), via(x);
  std::vector<std::uint64_t> ref_block(kN), got_block(kN), via_block(kN);
  for (std::size_t refill = 0; refill < 4; ++refill) {
    for (std::size_t j = refill * kN; j < (refill + 1) * kN; ++j) {
      const std::uint64_t y = (x[j] & kUpperMask) | (x[j + 1] & kLowerMask);
      x.push_back(x[j + kM] ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0));
    }
    mt64_refill_scalar(ref.data(), ref_block.data());
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
    mt64_refill(via.data(), via_block.data());
    ASSERT_EQ(via, ref) << "dispatched refill " << refill;
    ASSERT_EQ(via_block, ref_block) << "dispatched refill " << refill;
#if defined(DWI_SIMD_AVX2)
    if (avx2_testable()) {
      mt64_refill_avx2(got.data(), got_block.data());
      ASSERT_EQ(got, ref) << "avx2 refill " << refill;
      ASSERT_EQ(got_block, ref_block) << "avx2 refill " << refill;
    }
#endif
  }
}

/// A lane of the first-draw scan: its first word and its λ.
struct ScanLane {
  std::uint64_t word;
  double lambda;
};

/// Every lane's verdict from every start and for counts 0 to 13 and
/// to the end: the scalar variant against the definition, the AVX2
/// and dispatched variants against the scalar one.
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
  for (std::size_t start = 0; start < lanes.size(); ++start) {
    const std::size_t rest = lanes.size() - start;
    for (std::size_t count = 0; count <= rest; ++count) {
      if (count > 13 && count != rest) continue;
      std::size_t want = count;
      for (std::size_t i = 0; i < count; ++i) {
        if (unsettled(start + i)) {
          want = i;
          break;
        }
      }
      const std::uint64_t* w = words.data() + start;
      const double* lam = lambda.data() + start;
      ASSERT_EQ(poisson_first_draw_scan_scalar(w, lam, count), want)
          << "start=" << start << " count=" << count;
      ASSERT_EQ(poisson_first_draw_scan(w, lam, count), want)
          << "dispatched start=" << start << " count=" << count;
#if defined(DWI_SIMD_AVX2)
      if (avx2_testable()) {
        ASSERT_EQ(poisson_first_draw_scan_avx2(w, lam, count), want)
            << "avx2 start=" << start << " count=" << count;
      }
#endif
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
  // stops fall on every position within a 4-lane group.
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
  // N obligors × K sectors, float and double rows. The scalar variant
  // is checked against λ_i = p_i · (w_i0 + Σ_k w_ik S_k) built per
  // obligor; AVX2 and dispatched against it, with a guard word after
  // the output. Rows hold zeros, tiny and huge draws, and one row with
  // a NaN and one with an infinity (one special value per row, so no
  // sum meets two NaNs).
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  constexpr std::size_t kRows = 9;
  constexpr double kGuard = -12345.0;
  const std::size_t obligors[] = {1, 3, 4, 5, 12, 48};
  const std::size_t sectors[] = {1, 8};
  for (const std::size_t N : obligors) {
    for (const std::size_t K : sectors) {
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

      const auto check = [&](const auto& draws) {
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
        std::vector<double> got(kRows * N + 1, kGuard);
        const auto same = [&](const char* what) {
          for (std::size_t j = 0; j < want.size(); ++j) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                      std::bit_cast<std::uint64_t>(want[j]))
                << what << " lane " << j << ": " << got[j] << " vs "
                << want[j];
          }
          ASSERT_EQ(got.back(), kGuard) << what << " wrote past the rows";
        };
        intensity_block_scalar(book, draws.data(), kRows, got.data());
        same("scalar");
        std::fill(got.begin(), got.end(), kGuard);
        intensity_block(book, draws.data(), kRows, got.data());
        same("dispatched");
#if defined(DWI_SIMD_AVX2)
        if (avx2_testable()) {
          std::fill(got.begin(), got.end(), kGuard);
          intensity_block_avx2(book, draws.data(), kRows, got.data());
          same("avx2");
        }
#endif
      };
      check(rows);
      if (HasFatalFailure()) return;
      check(frows);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace dwi::rng::simd
