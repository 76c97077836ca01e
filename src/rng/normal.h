// Uniform-to-normal transforms (§II-D2, §II-D3).
//
// The paper evaluates two families:
//   * Marsaglia-Bray (polar) rejection method [17]: two uniforms in,
//     at most one normal out, acceptance probability π/4 ≈ 78.5 % —
//     heavy ops (log, sqrt, divide) and a data-dependent branch, the
//     divergence stressor for Config1/2;
//   * ICDF transforms: direct mapping of one uniform to one normal —
//     CUDA-style (erfinv polynomial, see erfinv.h) for the fixed
//     architectures, bit-level segmented (see icdf_bitwise.h) for the
//     FPGA — used in Config3/4 where only the gamma stage rejects.
//
// Every transform exposes the same per-attempt shape so the pipelined
// kernel (Listing 2), the SIMT lockstep kernels and the statistics
// suite all consume one interface.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dwi::rng {

/// Outcome of one pipelined normal-generation attempt.
struct NormalAttempt {
  float value = 0.0f;
  bool valid = false;
};

/// Which uniform-to-normal transform a configuration uses (Table I).
enum class NormalTransform {
  kMarsagliaBray,  ///< polar rejection (Config1, Config2)
  kIcdfBitwise,    ///< FPGA-style segmented ICDF (Config3, Config4 on FPGA)
  kIcdfCuda,       ///< CUDA-style erfinv ICDF (Config3, Config4 on CPU/GPU/PHI)
  kBoxMuller,      ///< classic trigonometric pair (baseline, §II-D2)
};

const char* to_string(NormalTransform t);

/// Number of 32-bit uniforms one attempt of the transform consumes.
/// Marsaglia-Bray needs two (split into two parallel twisters per [18]);
/// the ICDF transforms need one; Box-Muller consumes two and produces
/// two (we use one, matching the paper's single-output pipeline).
unsigned uniforms_per_attempt(NormalTransform t);

/// Marsaglia-Bray polar attempt: v_i = 2 u_i − 1, s = v₁² + v₂²;
/// accepted iff 0 < s < 1, output v₁ · sqrt(−2 ln s / s).
NormalAttempt marsaglia_bray_attempt(std::uint32_t u1, std::uint32_t u2);

/// Box-Muller: always valid; returns the cosine branch and optionally
/// the sine branch through `second`.
float box_muller(std::uint32_t u1, std::uint32_t u2,
                 float* second = nullptr);

/// Dispatch one attempt of `t` on up to two uniforms (u2 ignored when
/// the transform consumes one).
NormalAttempt normal_attempt(NormalTransform t, std::uint32_t u1,
                             std::uint32_t u2);

/// Batched form of normal_attempt for block-generated uniforms: apply
/// `t` to `count` attempts, reading ua[i] (and ub[i] for two-uniform
/// transforms; ub may be null otherwise). The valid attempts' values go
/// to n0[0..n_valid) in attempt order and attempt i's valid flag to bit
/// i % 64 of valid[i / 64] (ceil(count / 64) words, zero past count);
/// returns n_valid. Bit-identical to `count` normal_attempt calls.
std::size_t normal_attempt_block(NormalTransform t, const std::uint32_t* ua,
                                 const std::uint32_t* ub, std::size_t count,
                                 float* n0, std::uint64_t* valid);

/// Acceptance probability of one attempt, analytic where known:
/// π/4 for Marsaglia-Bray, 1 − 2^-31 for the bitwise ICDF, 1 otherwise.
double analytic_acceptance(NormalTransform t);

}  // namespace dwi::rng
