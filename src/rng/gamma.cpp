#include "rng/gamma.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "common/error.h"
#include "rng/fastmath.h"
#include "rng/simd_kernels.h"

namespace dwi::rng {

GammaConstants GammaConstants::make(float alpha, float scale) {
  DWI_REQUIRE(alpha > 0.0f, "gamma shape must be positive");
  DWI_REQUIRE(scale > 0.0f, "gamma scale must be positive");
  GammaConstants k;
  k.alpha = alpha;
  k.scale = scale;
  k.boosted = alpha < 1.0f;
  const float alpha_eff = k.boosted ? alpha + 1.0f : alpha;
  k.d = alpha_eff - 1.0f / 3.0f;
  k.c = 1.0f / std::sqrt(9.0f * k.d);
  k.inv_alpha = 1.0f / alpha;
  return k;
}

GammaConstants GammaConstants::from_sector_variance(float v) {
  DWI_REQUIRE(v > 0.0f, "sector variance must be positive");
  return make(1.0f / v, v);
}

GammaAttempt gamma_attempt(float n0, float u1, const GammaConstants& k) {
  const float t = 1.0f + k.c * n0;
  if (t <= 0.0f) return GammaAttempt{0.0f, false};
  const float v = t * t * t;
  const float x2 = n0 * n0;
  // Squeeze test first (cheap), then the exact log test.
  const bool squeeze = u1 < 1.0f - 0.0331f * x2 * x2;
  const bool exact =
      squeeze ||
      fast_logf(u1) < 0.5f * x2 + k.d * (1.0f - v + fast_logf(v));
  if (!exact) return GammaAttempt{0.0f, false};
  return GammaAttempt{k.d * v * k.scale, true};
}

float gamma_correct(float g, float u2, const GammaConstants& k) {
  return g * fast_powf(u2, k.inv_alpha);
}

GammaSampler::GammaSampler(GammaConstants constants, NormalTransform transform)
    : k_(constants), transform_(transform) {}

void GammaSampler::sample_block(MersenneTwister& mt, float* out,
                                std::size_t count) {
  BlockWordReader<MersenneTwister&> next(mt);
  for (std::size_t i = 0; i < count; ++i) out[i] = sample(next);
}

void GammaSampler::sample_block(Philox& px, float* out, std::size_t count) {
  // Batched rejection sampling over fixed rounds of kAttemptRound
  // attempts (the deterministic-order contract is documented on the
  // declaration): draw the round's uniforms in whole blocks, push them
  // through the vectorized transform / predicate / correction kernels,
  // and emit the accepted candidates until `count` is reached. Surplus
  // acceptances of the final round are discarded — out[] is always a
  // prefix of the stream's infinite variate tape.
  constexpr std::size_t kRound = kAttemptRound;
  std::uint32_t ua[kRound], ub[kRound], u1[kRound], u2[kRound];
  float n0[kRound], g_value[kRound];
  std::uint64_t n0_valid[kRound / 64], g_ok[kRound / 64];
  const bool two_uniforms = uniforms_per_attempt(transform_) == 2;
  const simd::Kernels& kernels = simd::active_kernels();

  std::size_t filled = 0;
  while (filled < count) {
    px.generate_block(ua, kRound);
    if (two_uniforms) px.generate_block(ub, kRound);
    // The valid normals come out compacted; u1 is drawn for exactly
    // those, u2 for exactly the accepted candidates.
    const std::size_t n_valid =
        normal_attempt_block(transform_, ua, two_uniforms ? ub : nullptr,
                             kRound, n0, n0_valid);
    px.generate_block(u1, n_valid);
    const std::size_t n_accepted =
        kernels.gamma_attempt_block(n0, u1, n_valid, k_, g_value, g_ok);
    kernels.compact_block(g_value, g_ok, n_valid, g_value);
    if (k_.boosted) {
      px.generate_block(u2, n_accepted);
      kernels.gamma_correct_block(g_value, u2, n_accepted, k_);
    }

    const std::size_t take = std::min(n_accepted, count - filled);
    std::memcpy(out + filled, g_value, take * sizeof(float));
    filled += take;
    if (take == n_accepted) {
      attempts_ += kRound;
      accepted_ += n_accepted;
    } else {
      // Final round: count attempts only up to the one that produced
      // the last emitted variate, matching the scalar stats contract.
      std::size_t acc = 0, vi = 0;
      for (std::size_t i = 0; i < kRound; ++i) {
        ++attempts_;
        if (bit_at(n0_valid, i)) {
          if (bit_at(g_ok, vi) && ++acc == take) break;
          ++vi;
        }
      }
      accepted_ += take;
    }
  }
}

double GammaSampler::rejection_rate() const {
  if (attempts_ == 0) return 0.0;
  return 1.0 - static_cast<double>(accepted_) / static_cast<double>(attempts_);
}

struct GammaReference::Impl {
  std::mt19937_64 engine;
  std::normal_distribution<double> normal{0.0, 1.0};
  std::uniform_real_distribution<double> uniform{0.0, 1.0};
};

GammaReference::GammaReference(double shape, double scale, std::uint64_t seed)
    : shape_(shape), scale_(scale), impl_(std::make_unique<Impl>()) {
  DWI_REQUIRE(shape > 0.0 && scale > 0.0,
              "gamma reference: positive shape and scale required");
  impl_->engine.seed(seed);
}

GammaReference::~GammaReference() = default;

double GammaReference::sample() {
  // Marsaglia-Tsang in double precision, independent uniform source.
  const bool boosted = shape_ < 1.0;
  const double alpha_eff = boosted ? shape_ + 1.0 : shape_;
  const double d = alpha_eff - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    const double x = impl_->normal(impl_->engine);
    const double t = 1.0 + c * x;
    if (t <= 0.0) continue;
    const double v = t * t * t;
    double u = impl_->uniform(impl_->engine);
    if (u <= 0.0) u = std::numeric_limits<double>::min();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2 ||
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      double g = d * v * scale_;
      if (boosted) {
        double u2 = impl_->uniform(impl_->engine);
        if (u2 <= 0.0) u2 = std::numeric_limits<double>::min();
        g *= std::pow(u2, 1.0 / shape_);
      }
      return g;
    }
  }
}

}  // namespace dwi::rng
