// AVX2 implementations of the block kernels in rng/simd_kernels.h.
//
// Compiled with -mavx2 -ffp-contract=off and only ever *called* after
// a cpuid check (see active_level()). Bit-identity rule: every float or
// double operation here is the same IEEE operation, in the same order,
// as the scalar reference — multiplies and adds stay separate (no
// FMA intrinsics), divisions and square roots are the correctly
// rounded vector forms, and the fastmath table lookups become gathers.
// Lanes a scalar early-out would skip are computed anyway and masked
// off; inputs outside the kernels' normal-range assumptions drop the
// whole 8-lane group to the scalar oracle, which is bitwise equal by
// construction.
#include "rng/simd_kernels.h"

#if defined(DWI_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "common/bits.h"
#include "rng/fastmath.h"
#include "rng/icdf_bitwise.h"

namespace dwi::rng::simd {

namespace {

using namespace fastmath_detail;

/// Lanes whose float bits are below the normal range (subnormal, zero,
/// or negative — nothing the samplers produce, but the scalar fallback
/// keeps even abuse deterministic).
inline int nonnormal_mask(__m256 x) {
  const __m256i bits = _mm256_castps_si256(x);
  const __m256i small =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(0x00800000), bits);
  return _mm256_movemask_ps(_mm256_castsi256_ps(small));
}

/// uint2float_open0 lane-wise: ((u >> 9) + 0.5f) * 0x1.0p-23f.
/// Every step is exact (see common/bits.h), so cvtepi32 is safe.
inline __m256 v_open0(__m256i u) {
  const __m256 f = _mm256_cvtepi32_ps(_mm256_srli_epi32(u, 9));
  return _mm256_mul_ps(_mm256_add_ps(f, _mm256_set1_ps(0.5f)),
                       _mm256_set1_ps(0x1.0p-23f));
}

struct VLogParts {
  __m256d r_lo, r_hi;
  __m256d kd_lo, kd_hi;
  __m128i idx_lo, idx_hi;
};

/// log_parts() for 8 positive normal floats (no subnormal branch —
/// callers route those groups to the scalar kernel).
inline VLogParts v_log_parts(__m256 x) {
  const __m256i ix = _mm256_castps_si256(x);
  const __m256i tmp = _mm256_sub_epi32(ix, _mm256_set1_epi32(
                                               static_cast<int>(kOff)));
  const __m256i idx = _mm256_and_si256(_mm256_srli_epi32(tmp, 19),
                                       _mm256_set1_epi32(15));
  const __m256i k = _mm256_srai_epi32(tmp, 23);
  const __m256i iz = _mm256_sub_epi32(
      ix, _mm256_and_si256(tmp, _mm256_set1_epi32(
                                    static_cast<int>(0xff800000u))));
  const __m256 z = _mm256_castsi256_ps(iz);

  VLogParts p;
  p.idx_lo = _mm256_castsi256_si128(idx);
  p.idx_hi = _mm256_extracti128_si256(idx, 1);
  const __m256d z_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(z));
  const __m256d z_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(z, 1));
  const __m256d invc_lo = _mm256_i32gather_pd(kInvC, p.idx_lo, 8);
  const __m256d invc_hi = _mm256_i32gather_pd(kInvC, p.idx_hi, 8);
  const __m256d one = _mm256_set1_pd(1.0);
  p.r_lo = _mm256_sub_pd(_mm256_mul_pd(z_lo, invc_lo), one);
  p.r_hi = _mm256_sub_pd(_mm256_mul_pd(z_hi, invc_hi), one);
  p.kd_lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(k));
  p.kd_hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(k, 1));
  return p;
}

/// lnp1() — same Horner chain, mul and add kept separate.
inline __m256d v_lnp1(__m256d r) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d p = _mm256_set1_pd(kP6);
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kP5));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kP4));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kP3));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kP2));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), one);
  p = _mm256_mul_pd(p, r);
  return p;
}

/// fast_logf() for 8 positive normal floats.
inline __m256 v_fast_logf(__m256 x) {
  const VLogParts p = v_log_parts(x);
  const __m256d ln2 = _mm256_set1_pd(kLn2);
  const __m256d y_lo =
      _mm256_add_pd(_mm256_mul_pd(p.kd_lo, ln2),
                    _mm256_i32gather_pd(kLogC, p.idx_lo, 8));
  const __m256d y_hi =
      _mm256_add_pd(_mm256_mul_pd(p.kd_hi, ln2),
                    _mm256_i32gather_pd(kLogC, p.idx_hi, 8));
  const __m256d r_lo = _mm256_add_pd(y_lo, v_lnp1(p.r_lo));
  const __m256d r_hi = _mm256_add_pd(y_hi, v_lnp1(p.r_hi));
  return _mm256_set_m128(_mm256_cvtpd_ps(r_hi), _mm256_cvtpd_ps(r_lo));
}

/// fast_log2d() for one 4-lane half.
inline __m256d v_log2d_half(__m256d r, __m256d kd, __m128i idx) {
  const __m256d log2c = _mm256_i32gather_pd(kLog2C, idx, 8);
  return _mm256_add_pd(_mm256_add_pd(kd, log2c),
                       _mm256_mul_pd(v_lnp1(r), _mm256_set1_pd(kInvLn2)));
}

/// exp2_pos() for 4 doubles in the clamped range.
inline __m256d v_exp2(__m256d t) {
  const __m256d magic = _mm256_set1_pd(0x1.8p52);
  const __m256d scaled = _mm256_mul_pd(t, _mm256_set1_pd(32.0));
  const __m256d kd_plus = _mm256_add_pd(scaled, magic);
  // Low dword of each double's bit pattern = the rounded int32.
  const __m256i kb = _mm256_castpd_si256(kd_plus);
  const __m256i packed = _mm256_permute4x64_epi64(
      _mm256_shuffle_epi32(kb, _MM_SHUFFLE(2, 0, 2, 0)),
      _MM_SHUFFLE(3, 3, 2, 0));
  const __m128i ki = _mm256_castsi256_si128(packed);
  const __m256d kd = _mm256_sub_pd(kd_plus, magic);
  const __m256d w = _mm256_mul_pd(_mm256_sub_pd(scaled, kd),
                                  _mm256_set1_pd(kLn2Div32));
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d q = _mm256_set1_pd(kQ4);
  q = _mm256_add_pd(_mm256_mul_pd(q, w), _mm256_set1_pd(kQ3));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), _mm256_set1_pd(kQ2));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), one);
  q = _mm256_add_pd(_mm256_mul_pd(q, w), one);
  const __m256i tab = _mm256_i32gather_epi64(
      reinterpret_cast<const long long*>(kExp2Tab),
      _mm_and_si128(ki, _mm_set1_epi32(31)), 8);
  const __m256i expo = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_srai_epi32(ki, 5)), 52);
  const __m256d s = _mm256_castsi256_pd(_mm256_add_epi64(tab, expo));
  return _mm256_mul_pd(s, q);
}

/// Lanes that are not positive, finite and normal: their bits minus
/// 0x00800000 are at least 0x7f000000, unsigned.
inline int abnormal_mask(__m256 x) {
  const __m256i off = _mm256_sub_epi32(_mm256_castps_si256(x),
                                       _mm256_set1_epi32(0x00800000));
  const __m256i top = _mm256_max_epu32(off, _mm256_set1_epi32(0x7f000000));
  return _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(top, off)));
}

/// kCompactLut[m]: byte j is the lane of the j-th set bit of m.
constexpr std::array<std::uint64_t, 256> kCompactLut = [] {
  std::array<std::uint64_t, 256> lut{};
  for (unsigned m = 0; m < 256; ++m) {
    for (unsigned lane = 0, j = 0; lane < 8; ++lane) {
      if (((m >> lane) & 1) != 0) lut[m] |= std::uint64_t{lane} << (8 * j++);
    }
  }
  return lut;
}();

/// The lanes of x whose bit of m is set, moved to the front in order
/// (the lanes after them are don't-cares).
inline __m256i compact_lanes(__m256i x, unsigned m) {
  const __m256i idx = _mm256_cvtepu8_epi32(
      _mm_cvtsi64_si128(static_cast<long long>(kCompactLut[m])));
  return _mm256_permutevar8x32_epi32(x, idx);
}

inline __m256 compact_lanes(__m256 x, unsigned m) {
  return _mm256_castsi256_ps(compact_lanes(_mm256_castps_si256(x), m));
}

/// Zero the flag words of `count` lanes; groups then OR their 8 bits in.
inline void clear_flags(std::uint64_t* flags, std::size_t count) {
  std::fill_n(flags, ceil_div<std::size_t>(count, 64), std::uint64_t{0});
}

/// Mersenne-Twister tempering of 8 words under p's shift/mask tuple.
inline __m256i v_temper(__m256i y, const MtParams& p) {
  const auto mix = [&y](__m256i shifted, std::uint32_t m) {
    const __m256i mask = _mm256_set1_epi32(static_cast<int>(m));
    y = _mm256_xor_si256(y, _mm256_and_si256(shifted, mask));
  };
  const auto count = [](unsigned c) { return static_cast<int>(c); };
  mix(_mm256_srli_epi32(y, count(p.u)), p.d);
  mix(_mm256_slli_epi32(y, count(p.s)), p.b);
  mix(_mm256_slli_epi32(y, count(p.t)), p.c);
  return _mm256_xor_si256(y, _mm256_srli_epi32(y, count(p.l)));
}

/// 8 Mersenne-Twister recurrences abreast: mid ^ (x >> 1) ^ (x odd ? a
/// : 0) with x = (cur & ~lower) | (nxt & lower).
inline __m256i v_twist(__m256i cur, __m256i nxt, __m256i mid, __m256i lower,
                       __m256i a) {
  const __m256i x = _mm256_or_si256(_mm256_andnot_si256(lower, cur),
                                    _mm256_and_si256(nxt, lower));
  const __m256i odd = _mm256_sub_epi32(
      _mm256_setzero_si256(), _mm256_and_si256(x, _mm256_set1_epi32(1)));
  return _mm256_xor_si256(
      mid, _mm256_xor_si256(_mm256_srli_epi32(x, 1), _mm256_and_si256(odd, a)));
}

}  // namespace

std::size_t mb_attempt_block_avx2(const std::uint32_t* ua,
                                  const std::uint32_t* ub, std::size_t count,
                                  float* n0, std::uint64_t* valid) {
  // Per block of kBlock lanes: the polar setup on every lane, v1 of the
  // valid lanes compacted into n0 and their s into a stack buffer, then
  // the finish (log, divide, sqrt) over the compacted lanes only.
  constexpr std::size_t kBlock = 256;
  float s_valid[kBlock];
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  clear_flags(valid, count);
  std::size_t n = 0;
  std::size_t i = 0;
  while (i + 8 <= count) {
    const std::size_t end = i + std::min(kBlock, (count - i) & ~std::size_t{7});
    const std::size_t first = n;
    for (; i < end; i += 8) {
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ua + i));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ub + i));
      const __m256 v1 = _mm256_sub_ps(_mm256_mul_ps(two, v_open0(a)), one);
      const __m256 v2 = _mm256_sub_ps(_mm256_mul_ps(two, v_open0(b)), one);
      const __m256 s = _mm256_add_ps(_mm256_mul_ps(v1, v1),
                                     _mm256_mul_ps(v2, v2));
      const auto m = static_cast<unsigned>(_mm256_movemask_ps(_mm256_and_ps(
          _mm256_cmp_ps(s, one, _CMP_LT_OQ),
          _mm256_cmp_ps(s, _mm256_setzero_ps(), _CMP_GT_OQ))));
      _mm256_storeu_ps(n0 + n, compact_lanes(v1, m));
      _mm256_storeu_ps(s_valid + (n - first), compact_lanes(s, m));
      valid[i / 64] |= std::uint64_t{m} << (i % 64);
      n += static_cast<std::size_t>(std::popcount(m));
    }
    mb_finish_block_avx2(n0 + first, s_valid, n - first);
  }
  if (i < count) {  // fewer than 8 lanes: their flags fit one word
    std::uint64_t tail = 0;
    n += mb_attempt_block_scalar(ua + i, ub + i, count - i, n0 + n, &tail);
    valid[i / 64] |= tail << (i % 64);
  }
  return n;
}

void mb_finish_block_avx2(float* n0, const float* s, std::size_t count) {
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 sv = _mm256_loadu_ps(s + i);
    if (nonnormal_mask(sv) != 0) {
      mb_finish_block_scalar(n0 + i, s + i, 8);
      continue;
    }
    const __m256 logs = v_fast_logf(sv);
    const __m256 f = _mm256_sqrt_ps(_mm256_div_ps(
        _mm256_mul_ps(_mm256_set1_ps(-2.0f), logs), sv));
    _mm256_storeu_ps(n0 + i, _mm256_mul_ps(_mm256_loadu_ps(n0 + i), f));
  }
  if (i < count) mb_finish_block_scalar(n0 + i, s + i, count - i);
}

void icdf_cuda_block_avx2(const std::uint32_t* u, std::size_t count,
                          float* value) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256i dbias = _mm256_set1_epi64x(0x4330000000000000ll);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i ui = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(u + i));
    // Exact u32 -> double (bias-bit trick), then the correctly rounded
    // double -> float matches the scalar static_cast<float>(u).
    const __m256i lo64 = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(ui));
    const __m256i hi64 =
        _mm256_cvtepu32_epi64(_mm256_extracti128_si256(ui, 1));
    const __m256d d52 = _mm256_set1_pd(0x1.0p52);
    const __m256d d_lo = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(lo64, dbias)), d52);
    const __m256d d_hi = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(hi64, dbias)), d52);
    const __m256 uf32 =
        _mm256_set_m128(_mm256_cvtpd_ps(d_hi), _mm256_cvtpd_ps(d_lo));
    const __m256 uf = _mm256_mul_ps(
        _mm256_add_ps(uf32, _mm256_set1_ps(0.5f)),
        _mm256_set1_ps(0x1.0p-32f));
    const __m256 x = _mm256_sub_ps(_mm256_mul_ps(_mm256_set1_ps(2.0f), uf),
                                   one);
    const __m256 arg = _mm256_mul_ps(_mm256_sub_ps(one, x),
                                     _mm256_add_ps(one, x));
    if (nonnormal_mask(arg) != 0) {  // |x| rounded to 1 (u within 64 of
      icdf_cuda_block_scalar(u + i, 8, value + i);  // an endpoint)
      continue;
    }
    const __m256 w = _mm256_xor_ps(v_fast_logf(arg),
                                   _mm256_set1_ps(-0.0f));
    // Giles' two polynomial branches, both evaluated, blended on w < 5.
    const __m256 wc = _mm256_sub_ps(w, _mm256_set1_ps(2.5f));
    __m256 pc = _mm256_set1_ps(2.81022636e-08f);
    pc = _mm256_add_ps(_mm256_set1_ps(3.43273939e-07f), _mm256_mul_ps(pc, wc));
    pc = _mm256_add_ps(_mm256_set1_ps(-3.5233877e-06f), _mm256_mul_ps(pc, wc));
    pc = _mm256_add_ps(_mm256_set1_ps(-4.39150654e-06f), _mm256_mul_ps(pc, wc));
    pc = _mm256_add_ps(_mm256_set1_ps(0.00021858087f), _mm256_mul_ps(pc, wc));
    pc = _mm256_add_ps(_mm256_set1_ps(-0.00125372503f), _mm256_mul_ps(pc, wc));
    pc = _mm256_add_ps(_mm256_set1_ps(-0.00417768164f), _mm256_mul_ps(pc, wc));
    pc = _mm256_add_ps(_mm256_set1_ps(0.246640727f), _mm256_mul_ps(pc, wc));
    pc = _mm256_add_ps(_mm256_set1_ps(1.50140941f), _mm256_mul_ps(pc, wc));
    const __m256 wt = _mm256_sub_ps(_mm256_sqrt_ps(w), _mm256_set1_ps(3.0f));
    __m256 pt = _mm256_set1_ps(-0.000200214257f);
    pt = _mm256_add_ps(_mm256_set1_ps(0.000100950558f), _mm256_mul_ps(pt, wt));
    pt = _mm256_add_ps(_mm256_set1_ps(0.00134934322f), _mm256_mul_ps(pt, wt));
    pt = _mm256_add_ps(_mm256_set1_ps(-0.00367342844f), _mm256_mul_ps(pt, wt));
    pt = _mm256_add_ps(_mm256_set1_ps(0.00573950773f), _mm256_mul_ps(pt, wt));
    pt = _mm256_add_ps(_mm256_set1_ps(-0.0076224613f), _mm256_mul_ps(pt, wt));
    pt = _mm256_add_ps(_mm256_set1_ps(0.00943887047f), _mm256_mul_ps(pt, wt));
    pt = _mm256_add_ps(_mm256_set1_ps(1.00167406f), _mm256_mul_ps(pt, wt));
    pt = _mm256_add_ps(_mm256_set1_ps(2.83297682f), _mm256_mul_ps(pt, wt));
    const __m256 central = _mm256_cmp_ps(w, _mm256_set1_ps(5.0f), _CMP_LT_OQ);
    const __m256 p = _mm256_blendv_ps(pt, pc, central);
    const __m256 erfv = _mm256_mul_ps(p, x);
    _mm256_storeu_ps(value + i,
                     _mm256_mul_ps(_mm256_set1_ps(1.41421356237309505f),
                                   erfv));
  }
  if (i < count) icdf_cuda_block_scalar(u + i, count - i, value + i);
}

std::size_t gamma_attempt_block_avx2(const float* n0, const std::uint32_t* u1,
                                     std::size_t count, const GammaConstants& k,
                                     float* value, std::uint64_t* ok) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 kc = _mm256_set1_ps(k.c);
  const __m256 kd_ = _mm256_set1_ps(k.d);
  const __m256 kscale = _mm256_set1_ps(k.scale);
  clear_flags(ok, count);
  std::size_t accepted = 0;
  const auto accept = [&](std::size_t lane) {
    ok[lane / 64] |= std::uint64_t{1} << (lane % 64);
    ++accepted;
  };
  // t = 1 + c·x and v = t³, as gamma_attempt computes them.
  const auto cube = [&](__m256 x) {
    const __m256 t = _mm256_add_ps(one, _mm256_mul_ps(kc, x));
    return std::pair{t, _mm256_mul_ps(_mm256_mul_ps(t, t), t)};
  };
  // The exact test ln u1 < x²/2 + d(1 − v + ln v) on up to 8 compacted
  // squeeze misses (lane indices idx[0..lanes)). A group with a v that
  // fast_logf's vector form does not cover takes the scalar attempt.
  const auto exact_group = [&](const std::int32_t* idx, std::size_t lanes) {
    const unsigned live = (1u << lanes) - 1;
    const __m256i gi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    const __m256 x = _mm256_i32gather_ps(n0, gi, 4);
    const __m256 u1f = v_open0(_mm256_i32gather_epi32(
        reinterpret_cast<const int*>(u1), gi, 4));
    const __m256 v = cube(x).second;
    if ((static_cast<unsigned>(abnormal_mask(v)) & live) != 0) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const auto lane = static_cast<std::size_t>(idx[l]);
        const GammaAttempt g =
            gamma_attempt(n0[lane], uint2float_open0(u1[lane]), k);
        value[lane] = g.value;
        if (g.valid) accept(lane);
      }
      return;
    }
    const __m256 x2 = _mm256_mul_ps(x, x);
    const __m256 rhs = _mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(0.5f), x2),
        _mm256_mul_ps(kd_, _mm256_add_ps(_mm256_sub_ps(one, v),
                                         v_fast_logf(v))));
    unsigned pass = static_cast<unsigned>(_mm256_movemask_ps(
                        _mm256_cmp_ps(v_fast_logf(u1f), rhs, _CMP_LT_OQ))) &
                    live;
    if (pass == 0) return;
    float val[8];
    _mm256_storeu_ps(val, _mm256_mul_ps(_mm256_mul_ps(kd_, v), kscale));
    for (; pass != 0; pass &= pass - 1) {
      const int l = std::countr_zero(pass);
      const auto lane = static_cast<std::size_t>(idx[l]);
      value[lane] = val[l];
      accept(lane);
    }
  };

  // Per block of kBlock lanes: the squeeze test on every lane, the
  // misses' lane indices compacted, then the exact test over those
  // only. About half the 8-lane groups hold a miss, so testing the
  // compacted misses runs the two logs on a quarter as many groups.
  constexpr std::size_t kBlock = 512;
  std::int32_t miss[kBlock + 8];
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t i = 0;
  while (i + 8 <= count) {
    const std::size_t end = i + std::min(kBlock, (count - i) & ~std::size_t{7});
    std::size_t n_miss = 0;
    for (; i < end; i += 8) {
      const __m256 x = _mm256_loadu_ps(n0 + i);
      const __m256 u1f = v_open0(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(u1 + i)));
      const auto [t, v] = cube(x);
      const __m256 tpos = _mm256_cmp_ps(t, _mm256_setzero_ps(), _CMP_GT_OQ);
      const __m256 x2 = _mm256_mul_ps(x, x);
      const __m256 rhs = _mm256_sub_ps(
          one, _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.0331f), x2), x2));
      const __m256 squeeze = _mm256_cmp_ps(u1f, rhs, _CMP_LT_OQ);
      const __m256 fast_ok = _mm256_and_ps(tpos, squeeze);
      _mm256_storeu_ps(value + i,
                       _mm256_and_ps(_mm256_mul_ps(_mm256_mul_ps(kd_, v),
                                                   kscale),
                                     fast_ok));
      const auto fast = static_cast<unsigned>(_mm256_movemask_ps(fast_ok));
      ok[i / 64] |= std::uint64_t{fast} << (i % 64);
      accepted += static_cast<std::size_t>(std::popcount(fast));
      const auto m = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_andnot_ps(squeeze, tpos)));
      if (m != 0) {
        const __m256i ids = _mm256_add_epi32(
            _mm256_set1_epi32(static_cast<int>(i)), lane_ids);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(miss + n_miss),
                            compact_lanes(ids, m));
        n_miss += static_cast<std::size_t>(std::popcount(m));
      }
    }
    // Pad the last group with copies of a live lane, masked off.
    for (std::size_t p = n_miss; p % 8 != 0; ++p) miss[p] = miss[p - 1];
    for (std::size_t j = 0; j < n_miss; j += 8) {
      exact_group(miss + j, std::min<std::size_t>(8, n_miss - j));
    }
  }
  if (i < count) {  // fewer than 8 lanes: their flags fit one word
    std::uint64_t tail = 0;
    accepted += gamma_attempt_block_scalar(n0 + i, u1 + i, count - i, k,
                                           value + i, &tail);
    ok[i / 64] |= tail << (i % 64);
  }
  return accepted;
}

std::size_t compact_block_avx2(const float* in, const std::uint64_t* keep,
                               std::size_t count, float* out) {
  std::size_t n = 0;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const auto m = static_cast<unsigned>((keep[i / 64] >> (i % 64)) & 0xff);
    // n <= i: the store covers only lanes this group already loaded.
    _mm256_storeu_ps(out + n, compact_lanes(_mm256_loadu_ps(in + i), m));
    n += static_cast<std::size_t>(std::popcount(m));
  }
  const std::uint64_t tail = i < count ? keep[i / 64] >> (i % 64) : 0;
  return n + compact_block_scalar(in + i, &tail, count - i, out + n);
}

void gamma_correct_block_avx2(float* g, const std::uint32_t* u2,
                              std::size_t count, const GammaConstants& k) {
  const __m256d y = _mm256_set1_pd(static_cast<double>(k.inv_alpha));
  const __m256d lo_clamp = _mm256_set1_pd(-151.0);
  const __m256d hi_clamp = _mm256_set1_pd(129.0);
  const __m256d inf = _mm256_set1_pd(
      fastmath_detail::bits_f64(0x7ff0000000000000ull));
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256 u2f = v_open0(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(u2 + i)));
    const VLogParts p = v_log_parts(u2f);  // open0 floats are normal
    const __m256d t_lo =
        _mm256_mul_pd(y, v_log2d_half(p.r_lo, p.kd_lo, p.idx_lo));
    const __m256d t_hi =
        _mm256_mul_pd(y, v_log2d_half(p.r_hi, p.kd_hi, p.idx_hi));
    __m256d e_lo = v_exp2(t_lo);
    __m256d e_hi = v_exp2(t_hi);
    e_lo = _mm256_blendv_pd(e_lo, _mm256_setzero_pd(),
                            _mm256_cmp_pd(t_lo, lo_clamp, _CMP_LE_OQ));
    e_hi = _mm256_blendv_pd(e_hi, _mm256_setzero_pd(),
                            _mm256_cmp_pd(t_hi, lo_clamp, _CMP_LE_OQ));
    e_lo = _mm256_blendv_pd(e_lo, inf,
                            _mm256_cmp_pd(t_lo, hi_clamp, _CMP_GE_OQ));
    e_hi = _mm256_blendv_pd(e_hi, inf,
                            _mm256_cmp_pd(t_hi, hi_clamp, _CMP_GE_OQ));
    const __m256 pw =
        _mm256_set_m128(_mm256_cvtpd_ps(e_hi), _mm256_cvtpd_ps(e_lo));
    _mm256_storeu_ps(g + i, _mm256_mul_ps(_mm256_loadu_ps(g + i), pw));
  }
  if (i < count) gamma_correct_block_scalar(g + i, u2 + i, count - i, k);
}

void mt_temper_block_avx2(const std::uint32_t* state, std::size_t count,
                          const MtParams& params, std::uint32_t* out) {
  const MtParams p = params;  // a copy `out` cannot alias stays in registers
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v_temper(y, p));
  }
  if (i < count) mt_temper_block_scalar(state + i, count - i, p, out + i);
}

void mt_twist_block_avx2(std::uint32_t* state, const MtParams& p) {
  const unsigned n = p.n;
  const unsigned m = p.m;
  // Chunking preserves the scalar pass's read-before-write order only
  // if no chunk rewrites a word another lane of the same chunk still
  // has to read: segment 1 reads s[i+m..i+m+7] while writing
  // s[i..i+7] (needs m >= 8), segment 2 reads the rewritten prefix
  // s[i+m-n..i+m-n+7] which must stay strictly below the write window
  // (needs n - m >= 8). Both repo geometries qualify (MT19937:
  // m=397, n-m=227; MT(521): m=8, n-m=9); anything else drops to the
  // scalar pass.
  if (m < 8 || n - m < 8) {
    mt_twist_block_scalar(state, p);
    return;
  }
  std::uint32_t* s = state;
  const std::uint32_t a = p.a;
  const std::uint32_t lm32 = p.lower_mask();
  const std::uint32_t um32 = ~lm32;
  const __m256i va = _mm256_set1_epi32(static_cast<int>(a));
  const __m256i vlm = _mm256_set1_epi32(static_cast<int>(lm32));
  const auto step = [&](__m256i cur, __m256i nxt, __m256i mid) {
    return v_twist(cur, nxt, mid, vlm, va);
  };
  const auto loadu = [](const std::uint32_t* ptr) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ptr));
  };

  unsigned i = 0;
  // Segment 1 (i < n - m): all three reads are old-epoch words.
  for (; i + 8 <= n - m; i += 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + i),
                        step(loadu(s + i), loadu(s + i + 1), loadu(s + i + m)));
  }
  for (; i < n - m; ++i) {
    const std::uint32_t x = (s[i] & um32) | (s[i + 1] & lm32);
    s[i] = s[i + m] ^ (x >> 1) ^ ((-(x & 1u)) & a);
  }
  // Segment 2 (n - m <= i < n - 1): the middle word wraps onto the
  // rewritten prefix; successors are still old-epoch (s[n-1] last).
  for (; i + 8 <= n - 1; i += 8) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(s + i),
        step(loadu(s + i), loadu(s + i + 1), loadu(s + i + m - n)));
  }
  // The rest one word at a time: segment 2's last words, then s[n-1],
  // whose successor s[0] is already rewritten.
  for (; i < n; ++i) {
    const std::uint32_t x = (s[i] & um32) | (s[(i + 1) % n] & lm32);
    s[i] = s[i + m - n] ^ (x >> 1) ^ ((-(x & 1u)) & a);
  }
}

void mt_generate_block_avx2(std::uint32_t* state, std::size_t count,
                            const MtParams& params, std::uint32_t* out) {
  const MtParams p = params;  // a copy `out` cannot alias stays in registers
  if (p.n != 17 || p.m != 8) {
    for (std::size_t i = 0; i < count; i += p.n) {
      mt_twist_block_avx2(state, p);
      mt_temper_block_avx2(state, p.n, p, out + i);
    }
    return;
  }
  // x[j+17] = x[j+8] ^ twist(x[j], x[j+1]), 8 words a step, on the
  // window cur = x[j..j+7], nxt = x[j+1..j+8], hi = x[j+9..j+16]. The
  // middle words x[j+8..j+15] are a rotate of nxt and of hi, blended.
  // Then mid, hi and the output are the next cur, nxt and hi: the
  // window stays in registers (a linear array would reload each word 9
  // words after its store and stall on store forwarding).
  const __m256i vlm = _mm256_set1_epi32(static_cast<int>(p.lower_mask()));
  const __m256i va = _mm256_set1_epi32(static_cast<int>(p.a));
  const __m256i rot = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  const auto loadu = [](const std::uint32_t* ptr) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ptr));
  };
  __m256i cur = loadu(state);
  __m256i nxt = loadu(state + 1);
  __m256i hi = loadu(state + 9);
  // x[j+17..j+24] from the window at j, which then moves on by 8.
  const auto step = [&] {
    const __m256i mid = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(nxt, rot),
        _mm256_permutevar8x32_epi32(hi, rot), 0xFE);
    const __m256i y = v_twist(cur, nxt, mid, vlm, va);
    cur = mid;
    nxt = hi;
    hi = y;
    return y;
  };
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        v_temper(step(), p));
  }
  // Spill the window x[j..j+16], and for a part step x[j+17..j+24]
  // after it; the new state is the 17 words ending at the last output.
  std::uint32_t window[25];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(window + 1), nxt);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(window), cur);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(window + 9), hi);
  const std::size_t rest = count - i;
  if (rest != 0) {
    const __m256i y = step();
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(window + 17), y);
    std::uint32_t tempered[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tempered), v_temper(y, p));
    std::memcpy(out + i, tempered, rest * sizeof(std::uint32_t));
  }
  std::memcpy(state, window + rest, 17 * sizeof(std::uint32_t));
}

void philox_block_avx2(const std::uint32_t* counter, const std::uint32_t* key,
                       std::size_t nblocks, std::uint32_t* out) {
  // Integer-only kernel: 8 counters abreast through the 10 rounds,
  // SoA in registers, transposed to counter-order AoS on store. The
  // 32x32→64 mulhilo splits into even/odd _mm256_mul_epu32 pairs
  // recombined by dword blends. Exactness is trivial (no floats), so
  // the only care point is the 128-bit counter carry: a group whose
  // low word would wrap mid-group drops to the scalar oracle.
  std::uint32_t k0[10], k1[10];
  {
    std::uint32_t a = key[0], b = key[1];
    for (int r = 0; r < 10; ++r) {
      k0[r] = a;
      k1[r] = b;
      a += 0x9E3779B9u;
      b += 0xBB67AE85u;
    }
  }
  const __m256i mul0 = _mm256_set1_epi32(static_cast<int>(0xD2511F53u));
  const __m256i mul1 = _mm256_set1_epi32(static_cast<int>(0xCD9E8D57u));
  const __m256i lane_off = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);

  std::uint32_t c[4] = {counter[0], counter[1], counter[2], counter[3]};
  const auto advance8 = [&c] {
    const std::uint64_t next_lo = std::uint64_t{c[0]} + 8;
    c[0] = static_cast<std::uint32_t>(next_lo);
    if (next_lo >> 32) {
      for (int w = 1; w < 4; ++w) {
        if (++c[w] != 0) break;
      }
    }
  };

  std::size_t b = 0;
  for (; b + 8 <= nblocks; b += 8, out += 32) {
    if (c[0] > 0xffffffffu - 7u) {
      philox_block_scalar(c, key, 8, out);
      advance8();
      continue;
    }
    __m256i x0 = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(c[0])),
                                  lane_off);
    __m256i x1 = _mm256_set1_epi32(static_cast<int>(c[1]));
    __m256i x2 = _mm256_set1_epi32(static_cast<int>(c[2]));
    __m256i x3 = _mm256_set1_epi32(static_cast<int>(c[3]));
    for (int r = 0; r < 10; ++r) {
      const __m256i even0 = _mm256_mul_epu32(x0, mul0);
      const __m256i odd0 = _mm256_mul_epu32(_mm256_srli_epi64(x0, 32), mul0);
      const __m256i lo0 =
          _mm256_blend_epi32(even0, _mm256_slli_epi64(odd0, 32), 0xAA);
      const __m256i hi0 =
          _mm256_blend_epi32(_mm256_srli_epi64(even0, 32), odd0, 0xAA);
      const __m256i even1 = _mm256_mul_epu32(x2, mul1);
      const __m256i odd1 = _mm256_mul_epu32(_mm256_srli_epi64(x2, 32), mul1);
      const __m256i lo1 =
          _mm256_blend_epi32(even1, _mm256_slli_epi64(odd1, 32), 0xAA);
      const __m256i hi1 =
          _mm256_blend_epi32(_mm256_srli_epi64(even1, 32), odd1, 0xAA);
      const __m256i vk0 = _mm256_set1_epi32(static_cast<int>(k0[r]));
      const __m256i vk1 = _mm256_set1_epi32(static_cast<int>(k1[r]));
      const __m256i n0 =
          _mm256_xor_si256(_mm256_xor_si256(hi1, x1), vk0);
      const __m256i n2 =
          _mm256_xor_si256(_mm256_xor_si256(hi0, x3), vk1);
      x0 = n0;
      x1 = lo1;
      x2 = n2;
      x3 = lo0;
    }
    // SoA → AoS: 4x8 dword transpose via unpack + 128-bit permutes.
    const __m256i t0 = _mm256_unpacklo_epi32(x0, x1);
    const __m256i t1 = _mm256_unpacklo_epi32(x2, x3);
    const __m256i t2 = _mm256_unpackhi_epi32(x0, x1);
    const __m256i t3 = _mm256_unpackhi_epi32(x2, x3);
    const __m256i u0 = _mm256_unpacklo_epi64(t0, t1);  // block 0 | block 4
    const __m256i u1 = _mm256_unpackhi_epi64(t0, t1);  // block 1 | block 5
    const __m256i u2 = _mm256_unpacklo_epi64(t2, t3);  // block 2 | block 6
    const __m256i u3 = _mm256_unpackhi_epi64(t2, t3);  // block 3 | block 7
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 0),
                        _mm256_permute2x128_si256(u0, u1, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8),
                        _mm256_permute2x128_si256(u2, u3, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16),
                        _mm256_permute2x128_si256(u0, u1, 0x31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 24),
                        _mm256_permute2x128_si256(u2, u3, 0x31));
    advance8();
  }
  if (b < nblocks) philox_block_scalar(c, key, nblocks - b, out);
}

std::size_t icdf_bitwise_block_avx2(const std::uint32_t* u,
                                    std::size_t count, float* n0,
                                    std::uint64_t* valid) {
  // Pure integer datapath, so exactness needs no floating-point care:
  // 32-bit lanes wrap exactly like ap_fixed<32,·>, and the two
  // fixed-point MACs keep their full 64-bit intermediates via
  // _mm256_mul_epi32 (sign-extended low dwords). The leading-zero
  // detector runs through an exact int→double conversion (31-bit
  // values fit a double's mantissa), reading the exponent field.
  static_assert(IcdfBitwiseTable::kSubBits == 3,
                "sub-segment shifts below are hard-coded");
  static_assert(sizeof(IcdfBitwiseTable::Segment) == 24,
                "gather offsets assume three int64 coefficient raws");
  const int* base =
      reinterpret_cast<const int*>(&IcdfBitwiseTable::instance().segment(0, 0));

  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i pack64 = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);

  // r[i] = low32((sext64(a[i]) · sext64(b[i])) >> 27): the ap_fixed
  // full-precision multiply truncated back to 27 fractional bits. The
  // low dword of the 64-bit logical shift is exactly bits 27..58.
  const auto fx_mul = [](__m256i a, __m256i b) {
    const __m256i pe = _mm256_mul_epi32(a, b);
    const __m256i po = _mm256_mul_epi32(_mm256_shuffle_epi32(a, 0xF5),
                                        _mm256_shuffle_epi32(b, 0xF5));
    return _mm256_blend_epi32(
        _mm256_srli_epi64(pe, 27),
        _mm256_slli_epi64(_mm256_srli_epi64(po, 27), 32), 0xAA);
  };

  clear_flags(valid, count);
  std::size_t n = 0;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i uu =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + i));
    const __m256i upper = _mm256_srai_epi32(uu, 31);  // -1 on the p≥.5 half
    const __m256i t = _mm256_and_si256(_mm256_xor_si256(uu, upper),
                                       _mm256_set1_epi32(0x7fffffff));
    const __m256i invalid = _mm256_cmpeq_epi32(t, zero);

    const __m256i blo =
        _mm256_castpd_si256(_mm256_cvtepi32_pd(_mm256_castsi256_si128(t)));
    const __m256i bhi = _mm256_castpd_si256(
        _mm256_cvtepi32_pd(_mm256_extracti128_si256(t, 1)));
    const __m128i elo = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(_mm256_srli_epi64(blo, 52), pack64));
    const __m128i ehi = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(_mm256_srli_epi64(bhi, 52), pack64));
    const __m256i msb = _mm256_sub_epi32(_mm256_set_m128i(ehi, elo),
                                         _mm256_set1_epi32(1023));

    // Octave / sub-segment / local coordinate. Invalid lanes produce
    // garbage through here (their variable shift counts exceed 31 and
    // yield zero); everything they feed is masked below, the gather
    // index included. `wide` is the msb_pos >= kSubBits branch.
    const __m256i octave = _mm256_sub_epi32(_mm256_set1_epi32(30), msb);
    const __m256i wide = _mm256_cmpgt_epi32(msb, _mm256_set1_epi32(2));
    const __m256i shift_a = _mm256_sub_epi32(msb, _mm256_set1_epi32(3));
    const __m256i sub_a =
        _mm256_and_si256(_mm256_srlv_epi32(t, shift_a), _mm256_set1_epi32(7));
    const __m256i local_a = _mm256_and_si256(
        t, _mm256_sub_epi32(_mm256_sllv_epi32(one, shift_a), one));
    const __m256i sub_b = _mm256_sllv_epi32(
        _mm256_and_si256(t,
                         _mm256_sub_epi32(_mm256_sllv_epi32(one, msb), one)),
        _mm256_sub_epi32(_mm256_set1_epi32(3), msb));
    const __m256i sub = _mm256_blendv_epi8(sub_b, sub_a, wide);
    const __m256i local_bits = _mm256_and_si256(local_a, wide);
    const __m256i local_width = _mm256_and_si256(shift_a, wide);

    // x as ap_fixed<32,2> raw (30 fractional bits), re-scaled into the
    // coefficient format (>> 3). local_width <= 27 here, so the scalar
    // path's width-beyond-30 clamp is unreachable.
    const __m256i xc = _mm256_srli_epi32(
        _mm256_sllv_epi32(
            local_bits,
            _mm256_sub_epi32(_mm256_set1_epi32(30), local_width)),
        3);

    // Three dword gathers into the {c0,c1,c2} int64 triples (the low
    // dword of each raw holds the wrapped 32-bit value). Invalid lanes
    // clamp to segment 0 to keep the gather in bounds.
    const __m256i idx = _mm256_andnot_si256(
        invalid, _mm256_add_epi32(_mm256_slli_epi32(octave, 3), sub));
    const __m256i dw = _mm256_mullo_epi32(idx, _mm256_set1_epi32(6));
    const __m256i c0 = _mm256_i32gather_epi32(base, dw, 4);
    const __m256i c1 = _mm256_i32gather_epi32(
        base, _mm256_add_epi32(dw, _mm256_set1_epi32(2)), 4);
    const __m256i c2 = _mm256_i32gather_epi32(
        base, _mm256_add_epi32(dw, _mm256_set1_epi32(4)), 4);

    // Horner (c2·x + c1)·x + c0 with 32-bit wraparound adds, then the
    // reflection (negate where the input sign bit was clear) and the
    // exact 2^-27 raw→float scale; the invalid lanes are compacted out.
    __m256i g = _mm256_add_epi32(fx_mul(c2, xc), c1);
    g = _mm256_add_epi32(fx_mul(g, xc), c0);
    const __m256i neg = _mm256_xor_si256(upper, _mm256_set1_epi32(-1));
    g = _mm256_sub_epi32(_mm256_xor_si256(g, neg), neg);
    const __m256 value =
        _mm256_mul_ps(_mm256_cvtepi32_ps(g), _mm256_set1_ps(0x1.0p-27f));
    const auto m = static_cast<unsigned>(
        ~_mm256_movemask_ps(_mm256_castsi256_ps(invalid)) & 0xff);
    _mm256_storeu_ps(n0 + n, compact_lanes(value, m));
    valid[i / 64] |= std::uint64_t{m} << (i % 64);
    n += static_cast<std::size_t>(std::popcount(m));
  }
  if (i < count) {  // fewer than 8 lanes: their flags fit one word
    std::uint64_t tail = 0;
    n += icdf_bitwise_block_scalar(u + i, count - i, n0 + n, &tail);
    valid[i / 64] |= tail << (i % 64);
  }
  return n;
}

}  // namespace dwi::rng::simd

#endif  // DWI_SIMD_AVX2
