// Explicitly vectorized block kernels for the sampler's dense inner
// stages, with runtime dispatch over three levels.
//
// Contract: every kernel's vector implementations execute the exact
// operation sequence of its scalar reference (same IEEE ops, same
// order, no FMA contraction — builds pin -ffp-contract=off), so all
// levels are bit-identical on every input. tests/test_simd_kernels.cpp
// enforces this lane-for-lane on every level's table; the scalar table
// is the always-available oracle and the fallback on hosts without AVX2.
//
// Levels: scalar, AVX2 (8 float / 4 double lanes) and AVX-512 (16 float
// / 8 double lanes). Each kernel's vector body is written once, in
// rng/simd_bodies.h, as a template over the lane-width traits of
// rng/simd_lanes.h, and the two ISA translation units instantiate it at
// their width. MT(521)'s register window is the one body of fixed width
// (8 words, its recurrence's reach). A group a body does not run — a
// short tail, or inputs outside its normal-range assumptions — goes one
// level down, AVX-512 to AVX2 and AVX2 to scalar, which is bitwise
// equal in turn.
//
// Dispatch: one table of entry points per level, chosen once per
// process. Each vector translation unit is compiled whenever the
// compiler supports its flags and only *executed* after a cpuid check,
// so portable CI builds still run vectorized; DWI_NATIVE additionally
// tunes the scalar surroundings. Set DWI_SIMD=scalar (or avx2) in the
// environment to force a lower level; any other value keeps the
// detected one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "rng/gamma.h"
#include "rng/mersenne_twister.h"

namespace dwi::rng::simd {

enum class Level {
  kScalar,  ///< reference path, always available
  kAvx2,    ///< 8-wide float / 4-wide double kernels
  kAvx512,  ///< 16-wide float / 8-wide double (AVX-512 F/CD/BW/DQ/VL)
};

const char* to_string(Level level);

/// The highest level both this binary (the vector translation units
/// compiled in) and this host's CPU support.
Level host_level();

/// The level a DWI_SIMD value selects on a host whose highest level is
/// `host`: "scalar" forces scalar, "avx2" caps at AVX2, and anything
/// else (empty, another spelling, an unknown level) keeps `host`.
Level resolve_level(std::string_view request, Level host);

/// The level active_kernels() runs:
/// resolve_level(DWI_SIMD, host_level()), cached after first query.
Level active_level();

/// CreditRisk+ Poisson first draws (finance::ScenarioAggregator). A
/// lane with intensity λ < kPoissonRejectionMean whose first uniform
/// u = canonical_double(word) is at or below kPoissonFirstDrawBound − λ
/// settles as count 0 on that one word (1 − λ ≤ e^−λ, and the 2^-50
/// margin covers the rounding of the subtraction and of exp).
/// libstdc++'s poisson_distribution switches to rejection at λ = 12.
inline constexpr double kPoissonFirstDrawBound = 1.0 - 0x1p-50;
inline constexpr double kPoissonRejectionMean = 12.0;

/// A CreditRisk+ book's intensity coefficients: p_i, w_i0 and the
/// sector-major loadings w_ik at weights[k · obligors + i].
struct IntensityBook {
  std::size_t obligors = 0;
  std::size_t sectors = 0;
  const double* probability = nullptr;
  const double* w0 = nullptr;
  const double* weights = nullptr;
};

/// One level's kernels. Mask kernels write lane i's flag to bit i % 64
/// of flags[i / 64] (ceil(count / 64) words, clear past `count`) and
/// return the number of set flags; compacted outputs keep lane order.
struct Kernels {
  /// Marsaglia-Bray polar attempts, as marsaglia_bray_attempt(ua[i],
  /// ub[i]): the valid lanes' normals go to n0[0..n_valid), their flags
  /// to `valid`. Log, divide and sqrt run over the valid lanes only.
  std::size_t (*mb_attempt_block)(const std::uint32_t* ua,
                                  const std::uint32_t* ub, std::size_t count,
                                  float* n0, std::uint64_t* valid);
  /// Marsaglia-Bray finish over pre-validated lanes (0 < s[i] < 1):
  /// n0[i] *= sqrt(-2 ln s[i] / s[i]). The SIMT engine hoists this out
  /// of its divergent region and feeds compacted lanes.
  void (*mb_finish_block)(float* n0, const float* s, std::size_t count);
  /// CUDA-style ICDF: value[i] = normal_icdf_cuda(u[i]); never rejects.
  void (*icdf_cuda_block)(const std::uint32_t* u, std::size_t count,
                          float* value);
  /// Bitwise "FPGA-style" ICDF, as normal_icdf_bitwise(u[i]): the valid
  /// lanes' normals go to n0[0..n_valid), their flags to `valid`. Pure
  /// integer datapath (LZD, table lookup, two fixed-point MACs): 32-bit
  /// lanes with 64-bit multiply intermediates reproduce the ap_fixed
  /// wrap/truncate semantics bit-for-bit.
  std::size_t (*icdf_bitwise_block)(const std::uint32_t* u, std::size_t count,
                                    float* n0, std::uint64_t* valid);
  /// Marsaglia-Tsang rejection predicate, as gamma_attempt(n0[i],
  /// uint2float_open0(u1[i]), k): value[i] per lane (0 on a rejection),
  /// accept flags to `ok`. The vector bodies compact the squeeze misses
  /// (8% of lanes at v = 1.39) and run the exact log test on those only.
  std::size_t (*gamma_attempt_block)(const float* n0, const std::uint32_t* u1,
                                     std::size_t count,
                                     const GammaConstants& k, float* value,
                                     std::uint64_t* ok);
  /// out[0..kept) = the in[i] whose `keep` bit is set, in order; returns
  /// kept. `out` may be `in`.
  std::size_t (*compact_block)(const float* in, const std::uint64_t* keep,
                               std::size_t count, float* out);
  /// α < 1 correction over accepted lanes:
  /// g[i] = gamma_correct(g[i], uint2float_open0(u2[i]), k).
  void (*gamma_correct_block)(float* g, const std::uint32_t* u2,
                              std::size_t count, const GammaConstants& k);
  /// Mersenne-Twister output. `state` holds the last n raw words of the
  /// recurrence, oldest first, all served: writes the next `count`
  /// tempered outputs (a multiple of n) to `out` and leaves the last n
  /// raw words in `state`. MT(521) (n = 17, m = 8) keeps its window in
  /// registers, 8 words a step, tempering fused; other geometries twist
  /// and temper a block at a time, as scalar does.
  void (*mt_generate_block)(std::uint32_t* state, std::size_t count,
                            const MtParams& p, std::uint32_t* out);
  /// MT19937-64 refill (rng::Mt19937_64): one twist pass over the
  /// mt64::kN words of `state`, in place, and their tempered values to
  /// block[0..kN).
  void (*mt64_refill)(std::uint64_t* state, std::uint64_t* block);
  /// The index of the first lane i < count that does not settle, taking
  /// words[i] as lane i's first word: u > kPoissonFirstDrawBound − λ or
  /// λ ≥ kPoissonRejectionMean. `count` when every lane settles. A NaN λ
  /// fails both compares and settles, as in libstdc++.
  std::size_t (*poisson_first_draw_scan)(const std::uint64_t* words,
                                         const double* lambda,
                                         std::size_t count);
  /// Conditional Poisson intensities for `n` scenario rows (row-major,
  /// one draw per sector): lambda[s · obligors + i] =
  /// p_i · (w_i0 + Σ_k w_ik S_k), in std::poisson_distribution's
  /// operation order (w_i0 first, sectors ascending, one product by p_i,
  /// no FMA). Float draws widen exactly.
  void (*intensity_block_f64)(const IntensityBook& book, const double* rows,
                              std::size_t n, double* lambda);
  void (*intensity_block_f32)(const IntensityBook& book, const float* rows,
                              std::size_t n, double* lambda);
  /// Philox4x32-10 counter run: encrypt the `nblocks` consecutive
  /// 128-bit counters starting at `counter` (little-endian 4-word,
  /// incremented with carry) under `key`, writing 4 outputs per block to
  /// `out` in counter order — the bulk half of Philox::generate_block.
  void (*philox_block)(const std::uint32_t* counter, const std::uint32_t* key,
                       std::size_t nblocks, std::uint32_t* out);
};

/// The table of `level`: the scalar oracles at kScalar, the vector
/// bodies at a level this binary compiles, nullptr at one it does not.
/// Call a vector table only at levels up to host_level().
const Kernels* kernels(Level level);

/// kernels(active_level()), chosen once: the table library code calls.
const Kernels& active_kernels();

}  // namespace dwi::rng::simd
