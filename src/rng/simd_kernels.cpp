#include "rng/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/bits.h"
#include "rng/erfinv.h"
#include "rng/fastmath.h"
#include "rng/icdf_bitwise.h"
#include "rng/mt19937_64.h"
#include "rng/normal.h"
#include "rng/philox.h"

namespace dwi::rng::simd {

const char* to_string(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "?";
}

bool avx2_compiled() {
#if defined(DWI_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

namespace {

Level detect_level() {
  if (const char* e = std::getenv("DWI_SIMD")) {
    if (std::strcmp(e, "scalar") == 0) return Level::kScalar;
    if (std::strcmp(e, "avx2") == 0 && avx2_compiled()) return Level::kAvx2;
    // Unknown or unavailable request: fall through to detection so a
    // typo degrades to the safe default instead of crashing later.
  }
#if defined(DWI_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

}  // namespace

Level active_level() {
  static const Level level = detect_level();
  return level;
}

// --- scalar references --------------------------------------------------
// These call the canonical scalar functions so the oracle is the
// production scalar path itself, not a reimplementation.

namespace {

/// Runs lane(i) for i in [0, count) and writes the flags it returns as
/// bit words (simd_kernels.h); returns the set count.
template <typename Lane>
std::size_t flag_lanes(std::size_t count, std::uint64_t* flags, Lane&& lane) {
  std::fill_n(flags, ceil_div<std::size_t>(count, 64), std::uint64_t{0});
  std::size_t set = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const bool f = lane(i);
    set += f;
    flags[i / 64] |= std::uint64_t{f} << (i % 64);
  }
  return set;
}

}  // namespace

std::size_t mb_attempt_block_scalar(const std::uint32_t* ua,
                                    const std::uint32_t* ub,
                                    std::size_t count, float* n0,
                                    std::uint64_t* valid) {
  std::size_t n = 0;
  return flag_lanes(count, valid, [&](std::size_t i) {
    const NormalAttempt a = marsaglia_bray_attempt(ua[i], ub[i]);
    n0[n] = a.value;  // n <= i: overwritten unless valid
    n += a.valid;
    return a.valid;
  });
}

void mb_finish_block_scalar(float* n0, const float* s, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    n0[i] = n0[i] * std::sqrt(-2.0f * fast_logf(s[i]) / s[i]);
  }
}

void icdf_cuda_block_scalar(const std::uint32_t* u, std::size_t count,
                            float* value) {
  for (std::size_t i = 0; i < count; ++i) {
    value[i] = normal_icdf_cuda(u[i]);
  }
}

std::size_t icdf_bitwise_block_scalar(const std::uint32_t* u,
                                      std::size_t count, float* n0,
                                      std::uint64_t* valid) {
  std::size_t n = 0;
  return flag_lanes(count, valid, [&](std::size_t i) {
    const IcdfResult r = normal_icdf_bitwise(u[i]);
    n0[n] = r.value;
    n += r.valid;
    return r.valid;
  });
}

std::size_t gamma_attempt_block_scalar(const float* n0,
                                       const std::uint32_t* u1,
                                       std::size_t count,
                                       const GammaConstants& k, float* value,
                                       std::uint64_t* ok) {
  return flag_lanes(count, ok, [&](std::size_t i) {
    const GammaAttempt g = gamma_attempt(n0[i], uint2float_open0(u1[i]), k);
    value[i] = g.value;
    return g.valid;
  });
}

std::size_t compact_block_scalar(const float* in, const std::uint64_t* keep,
                                 std::size_t count, float* out) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    out[n] = in[i];  // n <= i, so in-place is safe
    n += bit_at(keep, i);
  }
  return n;
}

void gamma_correct_block_scalar(float* g, const std::uint32_t* u2,
                                std::size_t count, const GammaConstants& k) {
  for (std::size_t i = 0; i < count; ++i) {
    g[i] = gamma_correct(g[i], uint2float_open0(u2[i]), k);
  }
}

void mt_temper_block_scalar(const std::uint32_t* state, std::size_t count,
                            const MtParams& p, std::uint32_t* out) {
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t y = state[i];
    y ^= (y >> p.u) & p.d;
    y ^= (y << p.s) & p.b;
    y ^= (y << p.t) & p.c;
    y ^= y >> p.l;
    out[i] = y;
  }
}

void mt_twist_block_scalar(std::uint32_t* state, const MtParams& p) {
  // The classic twist in three modulo-free segments. (-(x & 1)) & a
  // selects the twist coefficient branchlessly — the lsb is
  // effectively random, so a conditional would mispredict half the
  // time.
  std::uint32_t* s = state;
  const unsigned n = p.n;
  const unsigned m = p.m;
  const std::uint32_t a = p.a;
  const std::uint32_t lm = p.lower_mask();
  const std::uint32_t um = ~lm;

  for (unsigned i = 0; i < n - m; ++i) {
    const std::uint32_t x = (s[i] & um) | (s[i + 1] & lm);
    s[i] = s[i + m] ^ (x >> 1) ^ ((-(x & 1u)) & a);
  }
  for (unsigned i = n - m; i < n - 1; ++i) {
    const std::uint32_t x = (s[i] & um) | (s[i + 1] & lm);
    s[i] = s[i + m - n] ^ (x >> 1) ^ ((-(x & 1u)) & a);
  }
  {
    const std::uint32_t x = (s[n - 1] & um) | (s[0] & lm);
    s[n - 1] = s[m - 1] ^ (x >> 1) ^ ((-(x & 1u)) & a);
  }
}

void mt_generate_block_scalar(std::uint32_t* state, std::size_t count,
                              const MtParams& p, std::uint32_t* out) {
  for (std::size_t i = 0; i < count; i += p.n) {
    mt_twist_block_scalar(state, p);
    mt_temper_block_scalar(state, p.n, p, out + i);
  }
}

void mt64_refill_scalar(std::uint64_t* state, std::uint64_t* block) {
  using namespace mt64;
  std::uint64_t* s = state;
  const auto twist = [](std::uint64_t hi, std::uint64_t lo,
                        std::uint64_t mid) {
    const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
    return mid ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  };
  // The recurrence in three modulo-free segments: s[i+m] not yet
  // rewritten by this pass, s[i+m-n] already rewritten, and the last
  // word, whose successor s[0] is already rewritten.
  std::size_t i = 0;
  for (; i < kN - kM; ++i) s[i] = twist(s[i], s[i + 1], s[i + kM]);
  for (; i < kN - 1; ++i) s[i] = twist(s[i], s[i + 1], s[i + kM - kN]);
  s[kN - 1] = twist(s[kN - 1], s[0], s[kM - 1]);

  for (std::size_t j = 0; j < kN; ++j) {
    std::uint64_t z = s[j];
    z ^= (z >> kU) & kD;
    z ^= (z << kS) & kB;
    z ^= (z << kT) & kC;
    z ^= z >> kL;
    block[j] = z;
  }
}

std::size_t poisson_first_draw_scan_scalar(const std::uint64_t* words,
                                           const double* lambda,
                                           std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const double lam = lambda[i];
    if (lam >= kPoissonRejectionMean ||
        canonical_double(words[i]) > kPoissonFirstDrawBound - lam) {
      return i;
    }
  }
  return count;
}

namespace {

template <typename Draw>
void intensity_rows(const IntensityBook& book, const Draw* rows,
                    std::size_t n, double* lambda) {
  const std::size_t N = book.obligors;
  const std::size_t K = book.sectors;
  for (std::size_t s = 0; s < n; ++s) {
    const Draw* draws = rows + s * K;
    double* out = lambda + s * N;
    // The obligors run side by side over the sector-major weights;
    // each keeps the operation order, so every λ keeps its bits.
    std::copy_n(book.w0, N, out);
    for (std::size_t k = 0; k < K; ++k) {
      const double S = static_cast<double>(draws[k]);
      const double* w = book.weights + k * N;
      for (std::size_t i = 0; i < N; ++i) out[i] += w[i] * S;
    }
    for (std::size_t i = 0; i < N; ++i) out[i] *= book.probability[i];
  }
}

}  // namespace

void intensity_block_scalar(const IntensityBook& book, const double* rows,
                            std::size_t n, double* lambda) {
  intensity_rows(book, rows, n, lambda);
}

void intensity_block_scalar(const IntensityBook& book, const float* rows,
                            std::size_t n, double* lambda) {
  intensity_rows(book, rows, n, lambda);
}

void philox_block_scalar(const std::uint32_t* counter, const std::uint32_t* key,
                         std::size_t nblocks, std::uint32_t* out) {
  std::array<std::uint32_t, 4> c{counter[0], counter[1], counter[2],
                                 counter[3]};
  const std::array<std::uint32_t, 2> k{key[0], key[1]};
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::array<std::uint32_t, 4> r = philox4x32(c, k);
    out[0] = r[0];
    out[1] = r[1];
    out[2] = r[2];
    out[3] = r[3];
    out += 4;
    for (auto& w : c) {
      if (++w != 0) break;
    }
  }
}

// --- dispatched entry points --------------------------------------------

#if defined(DWI_SIMD_AVX2)
#define DWI_DISPATCH(fn, ...)                                     \
  do {                                                            \
    if (active_level() == Level::kAvx2) return fn##_avx2(__VA_ARGS__); \
    return fn##_scalar(__VA_ARGS__);                              \
  } while (0)
#else
#define DWI_DISPATCH(fn, ...) return fn##_scalar(__VA_ARGS__)
#endif

std::size_t mb_attempt_block(const std::uint32_t* ua, const std::uint32_t* ub,
                             std::size_t count, float* n0,
                             std::uint64_t* valid) {
  DWI_DISPATCH(mb_attempt_block, ua, ub, count, n0, valid);
}

void mb_finish_block(float* n0, const float* s, std::size_t count) {
  DWI_DISPATCH(mb_finish_block, n0, s, count);
}

void icdf_cuda_block(const std::uint32_t* u, std::size_t count, float* value) {
  DWI_DISPATCH(icdf_cuda_block, u, count, value);
}

std::size_t icdf_bitwise_block(const std::uint32_t* u, std::size_t count,
                               float* n0, std::uint64_t* valid) {
  DWI_DISPATCH(icdf_bitwise_block, u, count, n0, valid);
}

std::size_t gamma_attempt_block(const float* n0, const std::uint32_t* u1,
                                std::size_t count, const GammaConstants& k,
                                float* value, std::uint64_t* ok) {
  DWI_DISPATCH(gamma_attempt_block, n0, u1, count, k, value, ok);
}

std::size_t compact_block(const float* in, const std::uint64_t* keep,
                          std::size_t count, float* out) {
  DWI_DISPATCH(compact_block, in, keep, count, out);
}

void gamma_correct_block(float* g, const std::uint32_t* u2, std::size_t count,
                         const GammaConstants& k) {
  DWI_DISPATCH(gamma_correct_block, g, u2, count, k);
}

void mt_generate_block(std::uint32_t* state, std::size_t count,
                       const MtParams& p, std::uint32_t* out) {
  DWI_DISPATCH(mt_generate_block, state, count, p, out);
}

void philox_block(const std::uint32_t* counter, const std::uint32_t* key,
                  std::size_t nblocks, std::uint32_t* out) {
  DWI_DISPATCH(philox_block, counter, key, nblocks, out);
}

void mt64_refill(std::uint64_t* state, std::uint64_t* block) {
  DWI_DISPATCH(mt64_refill, state, block);
}

std::size_t poisson_first_draw_scan(const std::uint64_t* words,
                                    const double* lambda, std::size_t count) {
  DWI_DISPATCH(poisson_first_draw_scan, words, lambda, count);
}

void intensity_block(const IntensityBook& book, const double* rows,
                     std::size_t n, double* lambda) {
  DWI_DISPATCH(intensity_block, book, rows, n, lambda);
}

void intensity_block(const IntensityBook& book, const float* rows,
                     std::size_t n, double* lambda) {
  DWI_DISPATCH(intensity_block, book, rows, n, lambda);
}

#undef DWI_DISPATCH

}  // namespace dwi::rng::simd
