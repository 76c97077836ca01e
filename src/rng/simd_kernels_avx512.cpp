// AVX-512 implementations of the block kernels in rng/simd_kernels.h
// that the work-item prerun and the served samplers spend their time in.
//
// Compiled with -mavx512{f,cd,bw,dq,vl} -ffp-contract=off and only ever
// *called* after a cpuid check (see active_level()). Each body is its
// AVX2 sibling at 16 lanes: the same IEEE operations in the same order
// as the scalar reference, vcompressps where the AVX2 body permutes
// through a lookup table, and vplzcntd for the bitwise ICDF's
// leading-zero detect. Groups of fewer than 16 lanes, and 16-lane
// groups outside a kernel's normal-range assumptions, go to the AVX2
// body, which is bitwise equal to the scalar oracle in turn.
//
// Linkage rule: nothing here calls an inline function or template of
// another header that does vector or floating-point work (std::fill_n,
// uint2float_open0, fast_logf, ...), nor std::popcount and friends. An
// out-of-line copy compiled with these flags could be the one the
// linker keeps for the whole program, and would then run AVX-512 code
// on a host without it. Helpers are file-local; fallbacks call the
// exported _avx2 and _scalar kernels.
#include "rng/simd_kernels.h"

#if defined(DWI_SIMD_AVX512)

#include <immintrin.h>

#include "rng/fastmath.h"
#include "rng/icdf_bitwise.h"

namespace dwi::rng::simd {

namespace {

using namespace fastmath_detail;

std::size_t popcount16(__mmask16 m) {
  return static_cast<std::size_t>(__builtin_popcount(m));
}

std::size_t min_size(std::size_t a, std::size_t b) { return a < b ? a : b; }

/// Zero the flag words of `count` lanes; groups then OR their 16 bits in.
void clear_flags(std::uint64_t* flags, std::size_t count) {
  for (std::size_t w = 0; w < (count + 63) / 64; ++w) flags[w] = 0;
}

__m512i loadu_epi32(const std::uint32_t* p) { return _mm512_loadu_si512(p); }

// Unoptimized GCC builds define the 512-bit gathers as macros that pass
// their all-ones mask through a signed parameter.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-conversion"
__m512d gather_pd(__m256i idx, const double* base) {
  return _mm512_i32gather_pd(idx, base, 8);
}
__m512 gather_ps(__m512i idx, const float* base) {
  return _mm512_i32gather_ps(idx, base, 4);
}
__m512i gather_epi32(__m512i idx, const void* base) {
  return _mm512_i32gather_epi32(idx, base, 4);
}
#pragma GCC diagnostic pop

/// Lanes whose float bits are below the normal range (subnormal, zero
/// or negative).
__mmask16 nonnormal_mask(__m512 x) {
  return _mm512_cmplt_epi32_mask(_mm512_castps_si512(x),
                                 _mm512_set1_epi32(0x00800000));
}

/// Lanes that are not positive, finite and normal: their bits minus
/// 0x00800000 are at least 0x7f000000, unsigned.
__mmask16 abnormal_mask(__m512 x) {
  const __m512i off = _mm512_sub_epi32(_mm512_castps_si512(x),
                                       _mm512_set1_epi32(0x00800000));
  return _mm512_cmpge_epu32_mask(off, _mm512_set1_epi32(0x7f000000));
}

/// uint2float_open0 lane-wise: ((u >> 9) + 0.5f) * 0x1.0p-23f, every
/// step exact.
__m512 v_open0(__m512i u) {
  const __m512 f = _mm512_cvtepi32_ps(_mm512_srli_epi32(u, 9));
  return _mm512_mul_ps(_mm512_add_ps(f, _mm512_set1_ps(0.5f)),
                       _mm512_set1_ps(0x1.0p-23f));
}

/// Two 8-double halves back to 16 floats, each correctly rounded.
__m512 narrow(__m512d lo, __m512d hi) {
  return _mm512_insertf32x8(_mm512_castps256_ps512(_mm512_cvtpd_ps(lo)),
                            _mm512_cvtpd_ps(hi), 1);
}

/// lnp1(): the same Horner chain, multiplies and adds kept separate.
__m512d v_lnp1(__m512d r) {
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d p = _mm512_set1_pd(kP6);
  p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(kP5));
  p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(kP4));
  p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(kP3));
  p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(kP2));
  p = _mm512_add_pd(_mm512_mul_pd(p, r), one);
  return _mm512_mul_pd(p, r);
}

/// fast_logf() of one 8-lane half: z, the segment index and the binade
/// as log_parts() forms them, then kd·ln2 + ln c⁻¹ + lnp1(r).
__m512d v_log_half(__m256 z, __m256i idx, __m256i k) {
  const __m512d r = _mm512_sub_pd(
      _mm512_mul_pd(_mm512_cvtps_pd(z), gather_pd(idx, kInvC)),
      _mm512_set1_pd(1.0));
  const __m512d y =
      _mm512_add_pd(_mm512_mul_pd(_mm512_cvtepi32_pd(k), _mm512_set1_pd(kLn2)),
                    gather_pd(idx, kLogC));
  return _mm512_add_pd(y, v_lnp1(r));
}

/// fast_logf() for 16 positive normal floats (no subnormal branch:
/// callers route those groups elsewhere).
__m512 v_fast_logf(__m512 x) {
  const __m512i ix = _mm512_castps_si512(x);
  const __m512i tmp =
      _mm512_sub_epi32(ix, _mm512_set1_epi32(static_cast<int>(kOff)));
  const __m512i idx = _mm512_and_si512(_mm512_srli_epi32(tmp, 19),
                                       _mm512_set1_epi32(15));
  const __m512i k = _mm512_srai_epi32(tmp, 23);
  const __m512 z = _mm512_castsi512_ps(_mm512_sub_epi32(
      ix, _mm512_and_si512(tmp, _mm512_set1_epi32(
                                    static_cast<int>(0xff800000u)))));
  const __m512d lo = v_log_half(_mm512_castps512_ps256(z),
                                _mm512_castsi512_si256(idx),
                                _mm512_castsi512_si256(k));
  const __m512d hi = v_log_half(_mm512_extractf32x8_ps(z, 1),
                                _mm512_extracti64x4_epi64(idx, 1),
                                _mm512_extracti64x4_epi64(k, 1));
  return narrow(lo, hi);
}

/// Mersenne-Twister tempering of 16 words under p's shift/mask tuple.
__m512i v_temper(__m512i y, const MtParams& p) {
  const auto mix = [&y](__m512i shifted, std::uint32_t m) {
    y = _mm512_xor_si512(
        y, _mm512_and_si512(shifted, _mm512_set1_epi32(static_cast<int>(m))));
  };
  mix(_mm512_srli_epi32(y, p.u), p.d);
  mix(_mm512_slli_epi32(y, p.s), p.b);
  mix(_mm512_slli_epi32(y, p.t), p.c);
  return _mm512_xor_si512(y, _mm512_srli_epi32(y, p.l));
}

}  // namespace

std::size_t mb_attempt_block_avx512(const std::uint32_t* ua,
                                    const std::uint32_t* ub,
                                    std::size_t count, float* n0,
                                    std::uint64_t* valid) {
  // Per block of kBlock lanes: the polar setup on every lane, v1 of the
  // valid lanes compressed into n0 and their s into a stack buffer,
  // then the finish (log, divide, sqrt) over the compressed lanes only.
  // A compressed group is stored whole: the lanes past its valid ones
  // land on slots later groups overwrite (n0 + n + 16 <= ua's count).
  constexpr std::size_t kBlock = 256;
  float s_valid[kBlock];
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 two = _mm512_set1_ps(2.0f);
  clear_flags(valid, count);
  std::size_t n = 0;
  std::size_t i = 0;
  while (i + 16 <= count) {
    const std::size_t end = i + min_size(kBlock, (count - i) & ~std::size_t{15});
    const std::size_t first = n;
    for (; i < end; i += 16) {
      const __m512 v1 =
          _mm512_sub_ps(_mm512_mul_ps(two, v_open0(loadu_epi32(ua + i))), one);
      const __m512 v2 =
          _mm512_sub_ps(_mm512_mul_ps(two, v_open0(loadu_epi32(ub + i))), one);
      const __m512 s =
          _mm512_add_ps(_mm512_mul_ps(v1, v1), _mm512_mul_ps(v2, v2));
      const __mmask16 m =
          _mm512_cmp_ps_mask(s, one, _CMP_LT_OQ) &
          _mm512_cmp_ps_mask(s, _mm512_setzero_ps(), _CMP_GT_OQ);
      _mm512_storeu_ps(n0 + n, _mm512_maskz_compress_ps(m, v1));
      _mm512_storeu_ps(s_valid + (n - first), _mm512_maskz_compress_ps(m, s));
      valid[i / 64] |= std::uint64_t{m} << (i % 64);
      n += popcount16(m);
    }
    mb_finish_block_avx512(n0 + first, s_valid, n - first);
  }
  if (i < count) {  // fewer than 16 lanes: their flags fit one word
    std::uint64_t tail = 0;
    n += mb_attempt_block_avx2(ua + i, ub + i, count - i, n0 + n, &tail);
    valid[i / 64] |= tail << (i % 64);
  }
  return n;
}

void mb_finish_block_avx512(float* n0, const float* s, std::size_t count) {
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512 sv = _mm512_loadu_ps(s + i);
    if (nonnormal_mask(sv) != 0) {
      mb_finish_block_avx2(n0 + i, s + i, 16);
      continue;
    }
    const __m512 f = _mm512_sqrt_ps(_mm512_div_ps(
        _mm512_mul_ps(_mm512_set1_ps(-2.0f), v_fast_logf(sv)), sv));
    _mm512_storeu_ps(n0 + i, _mm512_mul_ps(_mm512_loadu_ps(n0 + i), f));
  }
  if (i < count) mb_finish_block_avx2(n0 + i, s + i, count - i);
}

std::size_t gamma_attempt_block_avx512(const float* n0,
                                       const std::uint32_t* u1,
                                       std::size_t count,
                                       const GammaConstants& k, float* value,
                                       std::uint64_t* ok) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 kc = _mm512_set1_ps(k.c);
  const __m512 kd = _mm512_set1_ps(k.d);
  const __m512 kscale = _mm512_set1_ps(k.scale);
  clear_flags(ok, count);
  std::size_t accepted = 0;
  const auto accept = [&](std::size_t lane) {
    ok[lane / 64] |= std::uint64_t{1} << (lane % 64);
    ++accepted;
  };
  // v = t³ with t = 1 + c·x, as gamma_attempt computes it.
  const auto cube = [&](__m512 t) {
    return _mm512_mul_ps(_mm512_mul_ps(t, t), t);
  };
  const auto t_of = [&](__m512 x) {
    return _mm512_add_ps(one, _mm512_mul_ps(kc, x));
  };
  // The exact test ln u1 < x²/2 + d(1 − v + ln v) on up to 16 compressed
  // squeeze misses (lane indices idx[0..lanes)). A group with a v that
  // fast_logf's vector form does not cover takes the scalar attempt,
  // one lane at a time.
  const auto exact_group = [&](const std::int32_t* idx, std::size_t lanes) {
    const auto live = static_cast<__mmask16>((1u << lanes) - 1);
    const __m512i gi = _mm512_loadu_si512(idx);
    const __m512 x = gather_ps(gi, n0);
    const __m512 u1f = v_open0(gather_epi32(gi, u1));
    const __m512 v = cube(t_of(x));
    if ((abnormal_mask(v) & live) != 0) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const auto lane = static_cast<std::size_t>(idx[l]);
        std::uint64_t flag = 0;
        accepted += gamma_attempt_block_scalar(n0 + lane, u1 + lane, 1, k,
                                               value + lane, &flag);
        ok[lane / 64] |= flag << (lane % 64);
      }
      return;
    }
    const __m512 x2 = _mm512_mul_ps(x, x);
    const __m512 rhs = _mm512_add_ps(
        _mm512_mul_ps(_mm512_set1_ps(0.5f), x2),
        _mm512_mul_ps(kd, _mm512_add_ps(_mm512_sub_ps(one, v),
                                        v_fast_logf(v))));
    unsigned pass =
        _mm512_cmp_ps_mask(v_fast_logf(u1f), rhs, _CMP_LT_OQ) & live;
    if (pass == 0) return;
    float val[16];
    _mm512_storeu_ps(val, _mm512_mul_ps(_mm512_mul_ps(kd, v), kscale));
    for (; pass != 0; pass &= pass - 1) {
      const int l = __builtin_ctz(pass);
      const auto lane = static_cast<std::size_t>(idx[l]);
      value[lane] = val[l];
      accept(lane);
    }
  };

  // Per block of kBlock lanes: the squeeze test on every lane, the
  // misses' lane indices compressed, then the exact test over those
  // only.
  constexpr std::size_t kBlock = 512;
  std::int32_t miss[kBlock + 16];
  const __m512i lane_ids = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                             10, 11, 12, 13, 14, 15);
  std::size_t i = 0;
  while (i + 16 <= count) {
    const std::size_t end = i + min_size(kBlock, (count - i) & ~std::size_t{15});
    std::size_t n_miss = 0;
    for (; i < end; i += 16) {
      const __m512 x = _mm512_loadu_ps(n0 + i);
      const __m512 u1f = v_open0(loadu_epi32(u1 + i));
      const __m512 t = t_of(x);
      const __m512 v = cube(t);
      const __mmask16 tpos =
          _mm512_cmp_ps_mask(t, _mm512_setzero_ps(), _CMP_GT_OQ);
      const __m512 x2 = _mm512_mul_ps(x, x);
      const __m512 rhs = _mm512_sub_ps(
          one, _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.0331f), x2), x2));
      const __mmask16 squeeze = _mm512_cmp_ps_mask(u1f, rhs, _CMP_LT_OQ);
      const __mmask16 fast = tpos & squeeze;
      _mm512_storeu_ps(value + i,
                       _mm512_maskz_mul_ps(fast, _mm512_mul_ps(kd, v), kscale));
      ok[i / 64] |= std::uint64_t{fast} << (i % 64);
      accepted += popcount16(fast);
      const __mmask16 m = tpos & static_cast<__mmask16>(~squeeze);
      if (m != 0) {
        const __m512i ids = _mm512_add_epi32(
            _mm512_set1_epi32(static_cast<int>(i)), lane_ids);
        _mm512_storeu_si512(miss + n_miss, _mm512_maskz_compress_epi32(m, ids));
        n_miss += popcount16(m);
      }
    }
    // Pad the last group with copies of a live lane, masked off.
    for (std::size_t p = n_miss; p % 16 != 0; ++p) miss[p] = miss[p - 1];
    for (std::size_t j = 0; j < n_miss; j += 16) {
      exact_group(miss + j, min_size(16, n_miss - j));
    }
  }
  if (i < count) {  // fewer than 16 lanes: their flags fit one word
    std::uint64_t tail = 0;
    accepted += gamma_attempt_block_avx2(n0 + i, u1 + i, count - i, k,
                                         value + i, &tail);
    ok[i / 64] |= tail << (i % 64);
  }
  return accepted;
}

std::size_t icdf_bitwise_block_avx512(const std::uint32_t* u,
                                      std::size_t count, float* n0,
                                      std::uint64_t* valid) {
  // The AVX2 body's integer datapath at 16 lanes; vplzcntd replaces its
  // exact int→double exponent read as the leading-zero detector.
  static_assert(IcdfBitwiseTable::kSubBits == 3,
                "sub-segment shifts below are hard-coded");
  static_assert(sizeof(IcdfBitwiseTable::Segment) == 24,
                "gather offsets assume three int64 coefficient raws");
  const int* base =
      reinterpret_cast<const int*>(&IcdfBitwiseTable::instance().segment(0, 0));

  const __m512i one = _mm512_set1_epi32(1);

  // r[i] = low32((sext64(a[i]) · sext64(b[i])) >> 27): the ap_fixed
  // full-precision multiply truncated back to 27 fractional bits.
  const auto fx_mul = [](__m512i a, __m512i b) {
    const __m512i pe = _mm512_mul_epi32(a, b);
    const __m512i po = _mm512_mul_epi32(_mm512_shuffle_epi32(a, _MM_PERM_DDBB),
                                        _mm512_shuffle_epi32(b, _MM_PERM_DDBB));
    return _mm512_mask_blend_epi32(
        0xAAAA, _mm512_srli_epi64(pe, 27),
        _mm512_slli_epi64(_mm512_srli_epi64(po, 27), 32));
  };

  clear_flags(valid, count);
  std::size_t n = 0;
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i uu = loadu_epi32(u + i);
    const __m512i upper = _mm512_srai_epi32(uu, 31);  // -1 on the p≥.5 half
    const __m512i t = _mm512_and_si512(_mm512_xor_si512(uu, upper),
                                       _mm512_set1_epi32(0x7fffffff));
    const __mmask16 live = _mm512_test_epi32_mask(t, t);
    const __m512i msb =
        _mm512_sub_epi32(_mm512_set1_epi32(31), _mm512_lzcnt_epi32(t));

    // Octave / sub-segment / local coordinate, as the AVX2 body forms
    // them. Dead lanes (t = 0) compute garbage that is masked below,
    // the gather index included. `wide` is the msb_pos >= kSubBits
    // branch.
    const __m512i octave = _mm512_sub_epi32(_mm512_set1_epi32(30), msb);
    const __mmask16 wide = _mm512_cmpgt_epi32_mask(msb, _mm512_set1_epi32(2));
    const __m512i shift_a = _mm512_sub_epi32(msb, _mm512_set1_epi32(3));
    const __m512i sub_a =
        _mm512_and_si512(_mm512_srlv_epi32(t, shift_a), _mm512_set1_epi32(7));
    const __m512i local_a = _mm512_and_si512(
        t, _mm512_sub_epi32(_mm512_sllv_epi32(one, shift_a), one));
    const __m512i sub_b = _mm512_sllv_epi32(
        _mm512_and_si512(t,
                         _mm512_sub_epi32(_mm512_sllv_epi32(one, msb), one)),
        _mm512_sub_epi32(_mm512_set1_epi32(3), msb));
    const __m512i sub = _mm512_mask_blend_epi32(wide, sub_b, sub_a);
    const __m512i local_bits = _mm512_maskz_mov_epi32(wide, local_a);
    const __m512i local_width = _mm512_maskz_mov_epi32(wide, shift_a);

    // x as ap_fixed<32,2> raw, re-scaled into the coefficient format.
    const __m512i xc = _mm512_srli_epi32(
        _mm512_sllv_epi32(local_bits, _mm512_sub_epi32(_mm512_set1_epi32(30),
                                                       local_width)),
        3);

    // Three dword gathers into the {c0,c1,c2} int64 triples; dead lanes
    // read segment 0.
    const __m512i idx = _mm512_maskz_add_epi32(
        live, _mm512_slli_epi32(octave, 3), sub);
    const __m512i dw = _mm512_mullo_epi32(idx, _mm512_set1_epi32(6));
    const __m512i c0 = gather_epi32(dw, base);
    const __m512i c1 =
        gather_epi32(_mm512_add_epi32(dw, _mm512_set1_epi32(2)), base);
    const __m512i c2 =
        gather_epi32(_mm512_add_epi32(dw, _mm512_set1_epi32(4)), base);

    // Horner with 32-bit wraparound adds, the reflection and the exact
    // 2^-27 raw→float scale; the dead lanes are compressed out.
    __m512i g = _mm512_add_epi32(fx_mul(c2, xc), c1);
    g = _mm512_add_epi32(fx_mul(g, xc), c0);
    const __m512i neg = _mm512_xor_si512(upper, _mm512_set1_epi32(-1));
    g = _mm512_sub_epi32(_mm512_xor_si512(g, neg), neg);
    const __m512 value =
        _mm512_mul_ps(_mm512_cvtepi32_ps(g), _mm512_set1_ps(0x1.0p-27f));
    _mm512_storeu_ps(n0 + n, _mm512_maskz_compress_ps(live, value));
    valid[i / 64] |= std::uint64_t{live} << (i % 64);
    n += popcount16(live);
  }
  if (i < count) {  // fewer than 16 lanes: their flags fit one word
    std::uint64_t tail = 0;
    n += icdf_bitwise_block_avx2(u + i, count - i, n0 + n, &tail);
    valid[i / 64] |= tail << (i % 64);
  }
  return n;
}

void mt_temper_block_avx512(const std::uint32_t* state, std::size_t count,
                            const MtParams& params, std::uint32_t* out) {
  const MtParams p = params;  // a copy `out` cannot alias stays in registers
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    _mm512_storeu_si512(out + i, v_temper(loadu_epi32(state + i), p));
  }
  if (i < count) mt_temper_block_avx2(state + i, count - i, p, out + i);
}

void mt_twist_block_avx512(std::uint32_t* state, const MtParams& p) {
  const unsigned n = p.n;
  const unsigned m = p.m;
  // As in the AVX2 pass, a 16-word chunk keeps the scalar pass's
  // read-before-write order only if m >= 16 (segment 1 reads
  // s[i+m..i+m+15] unwritten) and n - m >= 16 (segment 2 reads the
  // rewritten s[i+m-n..i+m-n+15] strictly below its own words).
  // MT19937 (m = 397, n - m = 227) qualifies; MT(521) does not.
  if (m < 16 || n - m < 16) {
    mt_twist_block_avx2(state, p);
    return;
  }
  std::uint32_t* s = state;
  const std::uint32_t a = p.a;
  const std::uint32_t lm = p.lower_mask();
  const __m512i va = _mm512_set1_epi32(static_cast<int>(a));
  const __m512i vlm = _mm512_set1_epi32(static_cast<int>(lm));
  // mid ^ (x >> 1) ^ (x odd ? a : 0) with x = (cur & ~lower) | (nxt & lower).
  const auto step = [&](unsigned i, unsigned mid) {
    const __m512i x = _mm512_or_si512(
        _mm512_andnot_si512(vlm, loadu_epi32(s + i)),
        _mm512_and_si512(loadu_epi32(s + i + 1), vlm));
    const __m512i odd = _mm512_maskz_mov_epi32(
        _mm512_test_epi32_mask(x, _mm512_set1_epi32(1)), va);
    _mm512_storeu_si512(
        s + i, _mm512_xor_si512(loadu_epi32(s + mid),
                                _mm512_xor_si512(_mm512_srli_epi32(x, 1), odd)));
  };
  const auto word = [&](unsigned i, unsigned nxt, unsigned mid) {
    const std::uint32_t x = (s[i] & ~lm) | (s[nxt] & lm);
    s[i] = s[mid] ^ (x >> 1) ^ ((0u - (x & 1u)) & a);
  };

  unsigned i = 0;
  // Segment 1 (i < n - m): all three reads are old-epoch words.
  for (; i + 16 <= n - m; i += 16) step(i, i + m);
  for (; i < n - m; ++i) word(i, i + 1, i + m);
  // Segment 2 (n - m <= i < n - 1): the middle word wraps onto the
  // rewritten prefix; successors are still old-epoch.
  for (; i + 16 <= n - 1; i += 16) step(i, i + m - n);
  for (; i < n - 1; ++i) word(i, i + 1, i + m - n);
  // s[n-1], whose successor s[0] is already rewritten.
  word(n - 1, 0, m - 1);
}

void mt_generate_block_avx512(std::uint32_t* state, std::size_t count,
                              const MtParams& p, std::uint32_t* out) {
  // MT(521) keeps its 8-word register window (the AVX2 body).
  if (p.n == 17 && p.m == 8) {
    mt_generate_block_avx2(state, count, p, out);
    return;
  }
  for (std::size_t i = 0; i < count; i += p.n) {
    mt_twist_block_avx512(state, p);
    mt_temper_block_avx512(state, p.n, p, out + i);
  }
}

}  // namespace dwi::rng::simd

#endif  // DWI_SIMD_AVX512
