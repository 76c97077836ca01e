// Lane-width traits for the kernel bodies of rng/simd_bodies.h, one per
// ISA: Lanes8 (AVX2) and Lanes16 (AVX-512). Only the ISA translation
// units include this, each compiled with its ISA's flags.
//
// The bodies do their arithmetic with GCC vector extensions: `a * b` on
// two float vectors is the IEEE multiply _mm256_mul_ps is (GCC's own
// intrinsics are written that way), it runs in the source's order, and
// -ffp-contract=off keeps multiplies and adds apart. A trait supplies
// what the extensions do not express, or GCC compiles poorly: lane
// masks to bits, float compares and a masked select (k registers at 16
// lanes), compaction (a permute table at 8 lanes, vpcompressd at 16),
// gathers, fastmath's table lookups (register permutes at 16 lanes),
// widening conversions, the square root and minpd, variable shifts,
// 32x32->64 multiplies, the leading-zero count, masked double loads,
// and the Philox output transpose. `down()` is the table a body
// hands the groups it does not run.
//
// Linkage: this header and the bodies define everything inside an
// anonymous namespace and call no inline function or template of
// another header, so an ISA object exports its kernel table and nothing
// else. (An out-of-line copy of a shared inline function compiled with
// these flags could be the one the linker keeps for the whole program,
// and would then run AVX code on a host without it.) The ctest
// SimdObjects.ExportOnlyEntryPoints checks the objects with nm.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "rng/simd_kernels.h"

namespace dwi::rng::simd {

/// The scalar oracles' table (rng/simd_kernels.cpp).
extern const Kernels kernels_scalar;

namespace {

template <class T, int N>
struct VecOf {
  typedef T type __attribute__((vector_size(N * sizeof(T))));
};
/// N lanes of T as a GCC vector.
template <class T, int N>
using Vec = typename VecOf<T, N>::type;

/// The lane types of a register of W floats.
template <int W>
struct LaneTypes {
  static constexpr int kW = W;
  using vf = Vec<float, W>;
  using vi = Vec<std::int32_t, W>;
  using vu = Vec<std::uint32_t, W>;
  using vd = Vec<double, W / 2>;
  using vq = Vec<std::int64_t, W / 2>;
  using vuq = Vec<std::uint64_t, W / 2>;
  using vh = Vec<std::int32_t, W / 2>;  ///< half: a double gather's index
  using vhf = Vec<float, W / 2>;
};

#if defined(__AVX2__)
/// kCompactLut.lanes[m]: byte j is the lane of the j-th set bit of m.
struct CompactLut {
  std::uint64_t lanes[256];
};
constexpr CompactLut kCompactLut = [] {
  CompactLut lut{};
  for (unsigned m = 0; m < 256; ++m) {
    for (unsigned lane = 0, j = 0; lane < 8; ++lane) {
      if (((m >> lane) & 1) != 0) {
        lut.lanes[m] |= std::uint64_t{lane} << (8 * j++);
      }
    }
  }
  return lut;
}();

/// AVX2: 8 float lanes, 4 double lanes.
struct Lanes8 : LaneTypes<8> {
  static const Kernels& down() { return kernels_scalar; }

  static unsigned bits(vi m) {
    return static_cast<unsigned>(_mm256_movemask_ps((__m256)m));
  }
  static unsigned bits(vq m) {
    return static_cast<unsigned>(_mm256_movemask_pd((__m256d)m));
  }
  /// Ordered float compares as lane masks, and x where m holds, else 0.
  static vi lt(vf a, vf b) { return a < b; }
  static vi gt(vf a, vf b) { return a > b; }
  static vf select(vi m, vf x) { return (vf)((vi)x & m); }
  static vi select(vi m, vi x) { return x & m; }
  /// The lanes of x that are not 0, as a lane mask.
  static vi nonzero(vi x) { return x != 0; }
  /// The lanes of x whose bit of m is set, moved to the front in order
  /// (the lanes after them are don't-cares).
  static vi compact(vi x, unsigned m) {
    const __m256i idx = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(kCompactLut.lanes[m])));
    return (vi)_mm256_permutevar8x32_epi32((__m256i)x, idx);
  }
  static vf sqrt(vf x) { return _mm256_sqrt_ps(x); }
  static vd min(vd a, vd b) { return _mm256_min_pd(a, b); }

  static vh lo(vi x) { return (vh)_mm256_castsi256_si128((__m256i)x); }
  static vh hi(vi x) { return (vh)_mm256_extracti128_si256((__m256i)x, 1); }
  static vi join(vh lo, vh hi) {
    return (vi)_mm256_set_m128i((__m128i)hi, (__m128i)lo);
  }
  static vd to_d(vh x) { return _mm256_cvtepi32_pd((__m128i)x); }
  static vd to_d(vhf x) { return _mm256_cvtps_pd(x); }

  static vf gather(const float* base, vi idx) {
    return _mm256_i32gather_ps(base, (__m256i)idx, 4);
  }
  static vi gather(const std::int32_t* base, vi idx) {
    return (vi)_mm256_i32gather_epi32(base, (__m256i)idx, 4);
  }
  /// table[idx] lane-wise, a gather: fastmath's tables, by their sizes.
  static vd lookup(const double (&table)[16], vh idx) {
    return _mm256_i32gather_pd(table, (__m128i)idx, 8);
  }
  static vuq lookup(const std::uint64_t (&table)[32], vq idx) {
    return (vuq)_mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(table), (__m256i)idx, 8);
  }

  /// The index of t's highest set bit (t > 0; garbage for t = 0): the
  /// exponent of its exact double.
  static vi msb(vi t) {
    const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    const auto exponent = [&pack](vh h) {
      const __m256i b = _mm256_castpd_si256(_mm256_cvtepi32_pd((__m128i)h));
      return (vh)_mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(_mm256_srli_epi64(b, 52), pack));
    };
    return join(exponent(lo(t)), exponent(hi(t))) - 1023;
  }
  /// Variable shifts; a count outside [0, 32) gives 0.
  static vi shl(vi x, vi n) {
    return (vi)_mm256_sllv_epi32((__m256i)x, (__m256i)n);
  }
  static vi shr(vi x, vi n) {
    return (vi)_mm256_srlv_epi32((__m256i)x, (__m256i)n);
  }
  /// 64-bit products of the even lanes, sign- or zero-extended.
  static vq mul_even(vi a, vi b) {
    return (vq)_mm256_mul_epi32((__m256i)a, (__m256i)b);
  }
  static vuq mul_even(vu a, vu b) {
    return (vuq)_mm256_mul_epu32((__m256i)a, (__m256i)b);
  }
  /// a's even lanes, b's odd ones.
  static vi blend_odd(vi a, vi b) {
    return (vi)_mm256_blend_epi32((__m256i)a, (__m256i)b, 0xAA);
  }

  /// Double lanes [0, n), for loads and stores that stop short.
  using DMask = __m256i;
  static DMask first(std::size_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static vd load(const double* p, DMask m) { return _mm256_maskload_pd(p, m); }
  static void store(double* p, vd x, DMask m) { _mm256_maskstore_pd(p, m, x); }

  /// Writes out[4j + r] = x_r[j]: the 4x8 transpose, unpacks within
  /// 128-bit lanes, then whole 128-bit lanes.
  static void store4(std::uint32_t* out, vu x0, vu x1, vu x2, vu x3) {
    const __m256i t0 = _mm256_unpacklo_epi32((__m256i)x0, (__m256i)x1);
    const __m256i t1 = _mm256_unpacklo_epi32((__m256i)x2, (__m256i)x3);
    const __m256i t2 = _mm256_unpackhi_epi32((__m256i)x0, (__m256i)x1);
    const __m256i t3 = _mm256_unpackhi_epi32((__m256i)x2, (__m256i)x3);
    const __m256i u0 = _mm256_unpacklo_epi64(t0, t1);  // block 0 | block 4
    const __m256i u1 = _mm256_unpackhi_epi64(t0, t1);  // block 1 | block 5
    const __m256i u2 = _mm256_unpacklo_epi64(t2, t3);  // block 2 | block 6
    const __m256i u3 = _mm256_unpackhi_epi64(t2, t3);  // block 3 | block 7
    auto* o = reinterpret_cast<__m256i*>(out);
    _mm256_storeu_si256(o + 0, _mm256_permute2x128_si256(u0, u1, 0x20));
    _mm256_storeu_si256(o + 1, _mm256_permute2x128_si256(u2, u3, 0x20));
    _mm256_storeu_si256(o + 2, _mm256_permute2x128_si256(u0, u1, 0x31));
    _mm256_storeu_si256(o + 3, _mm256_permute2x128_si256(u2, u3, 0x31));
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
/// AVX-512: 16 float lanes, 8 double lanes. Masks are k registers.
struct Lanes16 : LaneTypes<16> {
  static const Kernels& down();  // the AVX2 table, in the AVX-512 unit

  static unsigned bits(vi m) { return _mm512_movepi32_mask((__m512i)m); }
  static unsigned bits(vq m) { return _mm512_movepi64_mask((__m512i)m); }
  // Float compares straight to k-register bits: a vector mask would cost
  // a round trip through a register on the predicate's hot loop.
  static unsigned bits(unsigned m) { return m; }
  static unsigned lt(vf a, vf b) {
    return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ);
  }
  static unsigned gt(vf a, vf b) {
    return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ);
  }
  static vf select(unsigned m, vf x) {
    return _mm512_maskz_mov_ps(static_cast<__mmask16>(m), x);
  }
  static vi select(unsigned m, vi x) {
    return (vi)_mm512_maskz_mov_epi32(static_cast<__mmask16>(m), (__m512i)x);
  }
  static unsigned nonzero(vi x) {
    return _mm512_test_epi32_mask((__m512i)x, (__m512i)x);
  }
  static vi compact(vi x, unsigned m) {
    return (vi)_mm512_maskz_compress_epi32(static_cast<__mmask16>(m),
                                           (__m512i)x);
  }
  static vf sqrt(vf x) { return _mm512_sqrt_ps(x); }
  static vd min(vd a, vd b) { return _mm512_min_pd(a, b); }

  static vh lo(vi x) { return (vh)_mm512_castsi512_si256((__m512i)x); }
  static vh hi(vi x) { return (vh)_mm512_extracti64x4_epi64((__m512i)x, 1); }
  static vi join(vh lo, vh hi) {
    return (vi)_mm512_inserti64x4(_mm512_castsi256_si512((__m256i)lo),
                                  (__m256i)hi, 1);
  }
  static vd to_d(vh x) { return _mm512_cvtepi32_pd((__m256i)x); }
  static vd to_d(vhf x) { return _mm512_cvtps_pd(x); }

// Unoptimized GCC builds define the 512-bit gathers as macros that pass
// their all-ones mask through a signed parameter.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-conversion"
  static vf gather(const float* base, vi idx) {
    return _mm512_i32gather_ps((__m512i)idx, base, 4);
  }
  static vi gather(const std::int32_t* base, vi idx) {
    return (vi)_mm512_i32gather_epi32((__m512i)idx, base, 4);
  }
#pragma GCC diagnostic pop

  /// table[idx] from registers, no gather: a two-source permute
  /// (vpermt2pd) over the 16 doubles, and one (vpermt2q) over each half
  /// of the 32 words, picked by index bit 4.
  static vd lookup(const double (&table)[16], vh idx) {
    return _mm512_permutex2var_pd(_mm512_loadu_pd(table),
                                  _mm512_cvtepi32_epi64((__m256i)idx),
                                  _mm512_loadu_pd(table + 8));
  }
  static vuq lookup(const std::uint64_t (&table)[32], vq idx) {
    const auto half = [idx](const std::uint64_t* t) {
      return _mm512_permutex2var_epi64(_mm512_loadu_si512(t), (__m512i)idx,
                                       _mm512_loadu_si512(t + 8));
    };
    return (vuq)_mm512_mask_blend_epi64(
        _mm512_test_epi64_mask((__m512i)idx, _mm512_set1_epi64(16)),
        half(table), half(table + 16));
  }

  static vi msb(vi t) { return 31 - (vi)_mm512_lzcnt_epi32((__m512i)t); }
  static vi shl(vi x, vi n) {
    return (vi)_mm512_sllv_epi32((__m512i)x, (__m512i)n);
  }
  static vi shr(vi x, vi n) {
    return (vi)_mm512_srlv_epi32((__m512i)x, (__m512i)n);
  }
  static vq mul_even(vi a, vi b) {
    return (vq)_mm512_mul_epi32((__m512i)a, (__m512i)b);
  }
  static vuq mul_even(vu a, vu b) {
    return (vuq)_mm512_mul_epu32((__m512i)a, (__m512i)b);
  }
  static vi blend_odd(vi a, vi b) {
    return (vi)_mm512_mask_blend_epi32(0xAAAA, (__m512i)a, (__m512i)b);
  }

  using DMask = __mmask8;
  static DMask first(std::size_t n) {
    return static_cast<__mmask8>((1u << n) - 1);
  }
  static vd load(const double* p, DMask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void store(double* p, vd x, DMask m) {
    _mm512_mask_storeu_pd(p, m, x);
  }

  /// out[4j + r] = x_r[j]: the AVX2 unpacks within each 128-bit lane,
  /// then a 4x4 transpose of the 128-bit lanes.
  static void store4(std::uint32_t* out, vu x0, vu x1, vu x2, vu x3) {
    const __m512i t0 = _mm512_unpacklo_epi32((__m512i)x0, (__m512i)x1);
    const __m512i t1 = _mm512_unpacklo_epi32((__m512i)x2, (__m512i)x3);
    const __m512i t2 = _mm512_unpackhi_epi32((__m512i)x0, (__m512i)x1);
    const __m512i t3 = _mm512_unpackhi_epi32((__m512i)x2, (__m512i)x3);
    const __m512i u0 = _mm512_unpacklo_epi64(t0, t1);  // blocks 0, 4, 8, 12
    const __m512i u1 = _mm512_unpackhi_epi64(t0, t1);  // blocks 1, 5, 9, 13
    const __m512i u2 = _mm512_unpacklo_epi64(t2, t3);  // blocks 2, 6, 10, 14
    const __m512i u3 = _mm512_unpackhi_epi64(t2, t3);  // blocks 3, 7, 11, 15
    const __m512i a = _mm512_shuffle_i32x4(u0, u1, _MM_SHUFFLE(1, 0, 1, 0));
    const __m512i b = _mm512_shuffle_i32x4(u2, u3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m512i c = _mm512_shuffle_i32x4(u0, u1, _MM_SHUFFLE(3, 2, 3, 2));
    const __m512i d = _mm512_shuffle_i32x4(u2, u3, _MM_SHUFFLE(3, 2, 3, 2));
    _mm512_storeu_si512(out,
                        _mm512_shuffle_i32x4(a, b, _MM_SHUFFLE(2, 0, 2, 0)));
    _mm512_storeu_si512(out + 16,
                        _mm512_shuffle_i32x4(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
    _mm512_storeu_si512(out + 32,
                        _mm512_shuffle_i32x4(c, d, _MM_SHUFFLE(2, 0, 2, 0)));
    _mm512_storeu_si512(out + 48,
                        _mm512_shuffle_i32x4(c, d, _MM_SHUFFLE(3, 1, 3, 1)));
  }
};
#endif  // __AVX512F__

}  // namespace
}  // namespace dwi::rng::simd
