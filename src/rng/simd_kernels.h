// Explicitly vectorized block kernels for the sampler's dense inner
// stages, with runtime dispatch.
//
// Contract: every kernel's AVX2 implementation executes the exact
// operation sequence of its scalar reference (same IEEE ops, same
// order, no FMA contraction — builds pin -ffp-contract=off), so the
// two are bit-identical on every input. tests/test_simd_kernels.cpp
// enforces this lane-for-lane; the scalar path is the always-available
// oracle and the fallback on hosts without AVX2.
//
// Dispatch: resolved once per process. The AVX2 translation unit is
// compiled whenever the compiler supports -mavx2 (it is only *executed*
// after a cpuid check), so portable CI builds still run vectorized on
// AVX2 hosts; DWI_NATIVE additionally tunes the scalar surroundings.
// Set DWI_SIMD=scalar (or avx2) in the environment to force a level.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rng/gamma.h"
#include "rng/mersenne_twister.h"

namespace dwi::rng::simd {

enum class Level {
  kScalar,  ///< reference path, always available
  kAvx2,    ///< 8-wide float / 4-wide double kernels
};

const char* to_string(Level level);

/// True when the AVX2 translation unit was compiled into this binary.
bool avx2_compiled();

/// The level the dispatched kernels below will use: cpuid-detected,
/// overridable with DWI_SIMD=scalar|avx2, cached after first query.
Level active_level();

// --- dispatched kernels -------------------------------------------------
// Each `foo` runs `foo_avx2` when active_level() is kAvx2, else
// `foo_scalar`. The scalar variants are exported so tests can oracle
// against them regardless of dispatch state.

// Mask kernels write lane i's flag to bit i % 64 of flags[i / 64]
// (ceil(count / 64) words, clear past `count`) and return the number
// of set flags. Compacted outputs keep lane order.

/// Marsaglia-Bray polar attempts, as marsaglia_bray_attempt(ua[i],
/// ub[i]): the valid lanes' normals go to n0[0..n_valid), their flags
/// to `valid`. Log, divide and sqrt run over the valid lanes only.
std::size_t mb_attempt_block(const std::uint32_t* ua, const std::uint32_t* ub,
                             std::size_t count, float* n0,
                             std::uint64_t* valid);
std::size_t mb_attempt_block_scalar(const std::uint32_t* ua,
                                    const std::uint32_t* ub,
                                    std::size_t count, float* n0,
                                    std::uint64_t* valid);

/// Marsaglia-Bray finish over pre-validated lanes (0 < s[i] < 1):
/// n0[i] *= sqrt(-2 ln s[i] / s[i]). The SIMT engine hoists this out
/// of its divergent region and feeds compacted lanes.
void mb_finish_block(float* n0, const float* s, std::size_t count);
void mb_finish_block_scalar(float* n0, const float* s, std::size_t count);

/// CUDA-style ICDF: value[i] = normal_icdf_cuda(u[i]); never rejects.
void icdf_cuda_block(const std::uint32_t* u, std::size_t count, float* value);
void icdf_cuda_block_scalar(const std::uint32_t* u, std::size_t count,
                            float* value);

/// Bitwise "FPGA-style" ICDF, as normal_icdf_bitwise(u[i]): the valid
/// lanes' normals go to n0[0..n_valid), their flags to `valid`. Pure
/// integer datapath (LZD, table lookup, two fixed-point MACs), so the
/// AVX2 variant is exact by construction: 32-bit lanes with 64-bit
/// multiply intermediates reproduce the ap_fixed wrap/truncate
/// semantics bit-for-bit.
std::size_t icdf_bitwise_block(const std::uint32_t* u, std::size_t count,
                               float* n0, std::uint64_t* valid);
std::size_t icdf_bitwise_block_scalar(const std::uint32_t* u,
                                      std::size_t count, float* n0,
                                      std::uint64_t* valid);

/// Marsaglia-Tsang rejection predicate, as gamma_attempt(n0[i],
/// uint2float_open0(u1[i]), k): value[i] per lane (0 on a rejection),
/// accept flags to `ok`. The AVX2 variant compacts the squeeze misses
/// (8% of lanes at v = 1.39) and runs the exact log test 8 at a time.
std::size_t gamma_attempt_block(const float* n0, const std::uint32_t* u1,
                                std::size_t count, const GammaConstants& k,
                                float* value, std::uint64_t* ok);
std::size_t gamma_attempt_block_scalar(const float* n0,
                                       const std::uint32_t* u1,
                                       std::size_t count,
                                       const GammaConstants& k, float* value,
                                       std::uint64_t* ok);

/// out[0..kept) = the in[i] whose `keep` bit is set, in order; returns
/// kept. `out` may be `in`. AVX2: 8 lanes per permute-table step.
std::size_t compact_block(const float* in, const std::uint64_t* keep,
                          std::size_t count, float* out);
std::size_t compact_block_scalar(const float* in, const std::uint64_t* keep,
                                 std::size_t count, float* out);

/// α < 1 correction over accepted lanes:
/// g[i] = gamma_correct(g[i], uint2float_open0(u2[i]), k).
void gamma_correct_block(float* g, const std::uint32_t* u2, std::size_t count,
                         const GammaConstants& k);
void gamma_correct_block_scalar(float* g, const std::uint32_t* u2,
                                std::size_t count, const GammaConstants& k);

/// Mersenne-Twister output. `state` holds the last n raw words of the
/// recurrence, oldest first, all served: writes the next `count`
/// tempered outputs (a multiple of n) to `out` and leaves the last n
/// raw words in `state`. The AVX2 variant keeps the MT(521) window
/// (n = 17, m = 8) in registers, 8 words a step, tempering fused;
/// other geometries twist and temper a block at a time, as scalar does.
void mt_generate_block(std::uint32_t* state, std::size_t count,
                       const MtParams& p, std::uint32_t* out);
void mt_generate_block_scalar(std::uint32_t* state, std::size_t count,
                              const MtParams& p, std::uint32_t* out);

/// Its steps: out[i] = temper(state[i]), and one in-place twist pass
/// over `state` (the AVX2 pass needs m >= 8 and n - m >= 8, else it
/// falls back to the scalar one).
void mt_temper_block_scalar(const std::uint32_t* state, std::size_t count,
                            const MtParams& p, std::uint32_t* out);
void mt_twist_block_scalar(std::uint32_t* state, const MtParams& p);

/// MT19937-64 refill (rng::Mt19937_64): one twist pass over the
/// mt64::kN words of `state`, in place, and their tempered values to
/// block[0..kN). The AVX2 variant twists 4 words a step over the
/// scalar pass's segments (39 steps over the 156 words whose middle
/// word is not yet rewritten, 38 over the next 152, and one over the
/// last 4, in which s[311]'s successor is the rewritten s[0]) and
/// tempers the same vectors.
void mt64_refill(std::uint64_t* state, std::uint64_t* block);
void mt64_refill_scalar(std::uint64_t* state, std::uint64_t* block);

/// CreditRisk+ Poisson first draws (finance::ScenarioAggregator). A
/// lane with intensity λ < kPoissonRejectionMean whose first uniform
/// u = canonical_double(word) is at or below kPoissonFirstDrawBound − λ
/// settles as count 0 on that one word (1 − λ ≤ e^−λ, and the 2^-50
/// margin covers the rounding of the subtraction and of exp).
/// libstdc++'s poisson_distribution switches to rejection at λ = 12.
inline constexpr double kPoissonFirstDrawBound = 1.0 - 0x1p-50;
inline constexpr double kPoissonRejectionMean = 12.0;

/// The index of the first lane i < count that does not settle, taking
/// words[i] as lane i's first word: u > kPoissonFirstDrawBound − λ or
/// λ ≥ kPoissonRejectionMean. `count` when every lane settles. A NaN λ
/// fails both compares and settles, as in libstdc++. The AVX2 variant
/// forms u exactly as canonical_double does, 4 lanes a step.
std::size_t poisson_first_draw_scan(const std::uint64_t* words,
                                    const double* lambda, std::size_t count);
std::size_t poisson_first_draw_scan_scalar(const std::uint64_t* words,
                                           const double* lambda,
                                           std::size_t count);

/// A CreditRisk+ book's intensity coefficients: p_i, w_i0 and the
/// sector-major loadings w_ik at weights[k · obligors + i].
struct IntensityBook {
  std::size_t obligors = 0;
  std::size_t sectors = 0;
  const double* probability = nullptr;
  const double* w0 = nullptr;
  const double* weights = nullptr;
};

/// Conditional Poisson intensities for `n` scenario rows (row-major,
/// one draw per sector): lambda[s · obligors + i] =
/// p_i · (w_i0 + Σ_k w_ik S_k), in std::poisson_distribution's
/// operation order (w_i0 first, sectors ascending, one product by p_i,
/// no FMA). Float draws widen exactly. The AVX2 variant runs 4
/// obligors a vector, the last N mod 4 under a lane mask.
void intensity_block(const IntensityBook& book, const double* rows,
                     std::size_t n, double* lambda);
void intensity_block(const IntensityBook& book, const float* rows,
                     std::size_t n, double* lambda);
void intensity_block_scalar(const IntensityBook& book, const double* rows,
                            std::size_t n, double* lambda);
void intensity_block_scalar(const IntensityBook& book, const float* rows,
                            std::size_t n, double* lambda);

/// Philox4x32-10 counter run: encrypt the `nblocks` consecutive
/// 128-bit counters starting at `counter` (little-endian 4-word,
/// incremented with carry) under `key`, writing 4 outputs per block to
/// `out` in counter order — the bulk half of Philox::generate_block.
/// The AVX2 variant runs the 10 rounds on 8 counters abreast; counter
/// arithmetic is integer-exact, so all variants are bit-identical.
void philox_block(const std::uint32_t* counter, const std::uint32_t* key,
                  std::size_t nblocks, std::uint32_t* out);
void philox_block_scalar(const std::uint32_t* counter, const std::uint32_t* key,
                         std::size_t nblocks, std::uint32_t* out);

// --- AVX2 variants (defined only when the TU is compiled; call through
// the dispatched entry points unless testing) ---------------------------
#if defined(DWI_SIMD_AVX2)
std::size_t mb_attempt_block_avx2(const std::uint32_t* ua,
                                  const std::uint32_t* ub, std::size_t count,
                                  float* n0, std::uint64_t* valid);
void mb_finish_block_avx2(float* n0, const float* s, std::size_t count);
void icdf_cuda_block_avx2(const std::uint32_t* u, std::size_t count,
                          float* value);
std::size_t icdf_bitwise_block_avx2(const std::uint32_t* u,
                                    std::size_t count, float* n0,
                                    std::uint64_t* valid);
std::size_t gamma_attempt_block_avx2(const float* n0, const std::uint32_t* u1,
                                     std::size_t count, const GammaConstants& k,
                                     float* value, std::uint64_t* ok);
std::size_t compact_block_avx2(const float* in, const std::uint64_t* keep,
                               std::size_t count, float* out);
void gamma_correct_block_avx2(float* g, const std::uint32_t* u2,
                              std::size_t count, const GammaConstants& k);
void mt_temper_block_avx2(const std::uint32_t* state, std::size_t count,
                          const MtParams& p, std::uint32_t* out);
void mt_twist_block_avx2(std::uint32_t* state, const MtParams& p);
void mt_generate_block_avx2(std::uint32_t* state, std::size_t count,
                            const MtParams& p, std::uint32_t* out);
void philox_block_avx2(const std::uint32_t* counter, const std::uint32_t* key,
                       std::size_t nblocks, std::uint32_t* out);
void mt64_refill_avx2(std::uint64_t* state, std::uint64_t* block);
std::size_t poisson_first_draw_scan_avx2(const std::uint64_t* words,
                                         const double* lambda,
                                         std::size_t count);
void intensity_block_avx2(const IntensityBook& book, const double* rows,
                          std::size_t n, double* lambda);
void intensity_block_avx2(const IntensityBook& book, const float* rows,
                          std::size_t n, double* lambda);
#endif

}  // namespace dwi::rng::simd
