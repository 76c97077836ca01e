// Marsaglia-Tsang gamma random-number generation [14] — the paper's
// test-case algorithm (Fig 4): a *nested* rejection sampler that turns
// one normal and one uniform variate into one Gamma(α, 1) candidate per
// attempt, plus the α < 1 correction that consumes a second uniform.
//
// Shapes used by CreditRisk+ (§II-D4): sector variance v gives
// α = 1/v, scale b = v, so E[S] = 1 and Var[S] = v. For v = 1.39
// (the representative sector of §IV-B) α ≈ 0.72 < 1, so the correction
// path is live — exactly the configuration that exercises all three
// Mersenne-Twisters and all divergent branches of Listing 2.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/bits.h"
#include "rng/mersenne_twister.h"
#include "rng/normal.h"
#include "rng/philox.h"

namespace dwi::rng {

/// Pre-computed Marsaglia-Tsang constants for a given shape α.
/// When α < 1 the sampler draws from Gamma(α + 1) and corrects by
/// U^{1/α} (`boosted` true, Listing 2's `alphaFlag`).
struct GammaConstants {
  float alpha = 1.0f;       ///< requested shape
  float scale = 1.0f;       ///< scale b applied to the output
  bool boosted = false;     ///< α < 1: sample α+1, then correct
  float d = 0.0f;           ///< d = α_eff − 1/3
  float c = 0.0f;           ///< c = 1 / sqrt(9 d)
  float inv_alpha = 1.0f;   ///< 1/α for the correction exponent

  static GammaConstants make(float alpha, float scale = 1.0f);
  /// CreditRisk+ parameterization: α = 1/v, b = v.
  static GammaConstants from_sector_variance(float v);
};

/// Outcome of one pipelined gamma attempt (before correction).
struct GammaAttempt {
  float value = 0.0f;  ///< d·v·scale when valid (Gamma(α_eff) · scale)
  bool valid = false;
};

/// One Marsaglia-Tsang attempt: candidate from normal n0 and uniform u1.
///   v = (1 + c·n0)³; reject when v ≤ 0;
///   accept when u1 < 1 − 0.0331·n0⁴ (squeeze), else when
///   ln u1 < n0²/2 + d(1 − v + ln v); output d·v·scale.
GammaAttempt gamma_attempt(float n0, float u1, const GammaConstants& k);

/// Listing 2's `Correct`: the α < 1 correction g · u2^{1/α}.
/// Computed unconditionally in the pipeline; the result is selected only
/// when `alphaFlag` (k.boosted) is set.
float gamma_correct(float g, float u2, const GammaConstants& k);

/// Uniform source reading a block generator (MersenneTwister, Philox)
/// kWords at a time through generate_block, which yields exactly the
/// words of that many next() calls: one refill per kWords draws instead
/// of one generator call per draw. The reader runs ahead of demand, so
/// the generator must be dedicated to it. `Gen` is the generator held
/// by value (a reader that owns its stream and is resumed across
/// calls) or a reference type (reading a generator the caller owns).
template <typename Gen>
class BlockWordReader {
 public:
  static constexpr std::size_t kWords = 1024;

  explicit BlockWordReader(Gen gen) : gen_(gen) {}

  std::uint32_t operator()() {
    if (pos_ == kWords) {
      gen_.generate_block(buf_.data(), kWords);
      pos_ = 0;
    }
    return buf_[pos_++];
  }

 private:
  Gen gen_;
  std::array<std::uint32_t, kWords> buf_;
  std::size_t pos_ = kWords;
};

/// Full scalar generator: repeatedly attempt until accepted, pulling
/// 32-bit uniforms from `next_u32` and converting via the chosen normal
/// transform. Mirrors the paper's dataflow (normal → rejection →
/// correction) without the pipeline machinery; used for validation,
/// rejection-rate measurement and the CreditRisk+ sector work-items.
class GammaSampler {
 public:
  GammaSampler(GammaConstants constants, NormalTransform transform);

  /// Generate one variate; `next_u32()` supplies all uniforms. Any
  /// callable works (a lambda, a std::function, a BlockWordReader); it
  /// is called directly, with no type-erased dispatch per draw.
  template <typename NextU32>
  float sample(NextU32&& next_u32) {
    const bool two_uniforms = uniforms_per_attempt(transform_) == 2;
    for (;;) {
      ++attempts_;
      // Normal stage. Transforms consuming two uniforms pull both; the
      // scalar sampler has no need for the enable-flag machinery
      // because it simply does not call the source when a stage is
      // skipped — the pipelined kernels achieve the same effect with
      // AdaptedMersenneTwister.
      const std::uint32_t ua = next_u32();
      const std::uint32_t ub = two_uniforms ? next_u32() : 0;
      const NormalAttempt n = normal_attempt(transform_, ua, ub);
      if (!n.valid) continue;

      // Rejection stage.
      const float u1 = uint2float_open0(next_u32());
      const GammaAttempt g = gamma_attempt(n.value, u1, k_);
      if (!g.valid) continue;

      ++accepted_;
      if (!k_.boosted) return g.value;

      // Correction stage (α < 1).
      const float u2 = uint2float_open0(next_u32());
      return gamma_correct(g.value, u2, k_);
    }
  }

  /// `count` successive sample() calls on a BlockWordReader over `mt`:
  /// the variates and attempts()/accepted() are those of sample()
  /// backed by mt.next(). The reader runs ahead of demand, so `mt`
  /// should be dedicated to this sampler.
  void sample_block(MersenneTwister& mt, float* out, std::size_t count);

  /// Counter-based block path: fill out[0..count) from a Philox
  /// stream through the vectorized batch kernels (normal transform,
  /// Marsaglia-Tsang predicate, α<1 correction — rng/simd_kernels.h).
  ///
  /// Unlike the MersenneTwister overload, this path defines its OWN
  /// deterministic uniform-consumption order (it is NOT the scalar
  /// sample() order): attempts run in fixed rounds of kAttemptRound;
  /// each round draws one ua block (plus ub when the transform takes
  /// two uniforms), then one u1 block for the round's valid normals,
  /// then one u2 block for its accepted candidates. The order depends
  /// only on the stream contents, never on `count`, so out[] is a
  /// prefix of one infinite per-stream variate tape: serving the same
  /// stream with any count (or re-deriving the stream via O(1) seek)
  /// reproduces the same leading values bit-for-bit — the property the
  /// counter-based serving strategy keys on.
  void sample_block(Philox& px, float* out, std::size_t count);

  /// Fixed attempts-per-round of the Philox block path — part of the
  /// deterministic-order contract above, so changing it changes every
  /// counter-based stream's tape.
  static constexpr std::size_t kAttemptRound = 1024;

  /// Attempts and acceptances so far. The "combined rejection rate" in
  /// the paper's sense (§IV-E) is the fraction of main-loop iterations
  /// that do not emit a validated gamma RN.
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t accepted() const { return accepted_; }
  double rejection_rate() const;

  const GammaConstants& constants() const { return k_; }
  NormalTransform transform() const { return transform_; }

 private:
  GammaConstants k_;
  NormalTransform transform_;
  std::uint64_t attempts_ = 0;
  std::uint64_t accepted_ = 0;
};

/// Double-precision reference sampler built on std::mt19937_64 — an
/// independent code path playing the role of the paper's Matlab
/// `gamrnd` benchmark (Fig 6).
class GammaReference {
 public:
  GammaReference(double shape, double scale,
                 std::uint64_t seed = 0x9e3779b97f4a7c15ull);
  ~GammaReference();
  GammaReference(const GammaReference&) = delete;
  GammaReference& operator=(const GammaReference&) = delete;

  double sample();
  double shape() const { return shape_; }
  double scale() const { return scale_; }

 private:
  struct Impl;
  double shape_;
  double scale_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dwi::rng
