#include "core/pipeline_kernels.h"

#include <utility>

#include "common/bits.h"
#include "common/error.h"
#include "rng/simd_kernels.h"

namespace dwi::core {

UniformKernel::UniformKernel(const StreamConfig& cfg,
                             rng::NormalTransform transform,
                             std::vector<rng::GammaConstants> constants,
                             std::size_t round)
    : transform_(transform),
      constants_(std::move(constants)),
      round_(round),
      rounds_(constants_.size(), 0) {
  DWI_REQUIRE(!constants_.empty(), "pipeline: need at least one sector");
  DWI_REQUIRE(round_ >= 1, "pipeline: round size must be at least 1");
  streams_.reserve(constants_.size());
  switch (cfg.strategy) {
    case rng::StreamStrategy::kCounterBased: {
      const rng::CounterSubstreams subs(cfg.seed, cfg.stride);
      for (std::size_t k = 0; k < constants_.size(); ++k) {
        SectorStream s;
        s.px.emplace(subs.stream(k));
        streams_.push_back(std::move(s));
      }
      break;
    }
    case rng::StreamStrategy::kDistinctSeeds: {
      // The paper's §II-E seeding: per-sector MT19937 with decorrelated
      // seeds (the scalar sampler_gamma_source convention).
      for (std::size_t k = 0; k < constants_.size(); ++k) {
        SectorStream s;
        s.mt.emplace(rng::mt19937_params(),
                     cfg.seed + static_cast<std::uint32_t>(k) * 7919u);
        streams_.push_back(std::move(s));
      }
      break;
    }
  }
}

RoundBundle UniformKernel::next_round(std::size_t k) {
  DWI_ASSERT(k < streams_.size());
  RoundBundle b;
  b.sector = static_cast<std::uint32_t>(k);
  b.round = rounds_[k]++;
  SectorStream& s = streams_[k];
  b.ua.resize(round_);
  s.generate(b.ua.data(), round_);
  if (rng::uniforms_per_attempt(transform_) == 2) {
    b.ub.resize(round_);
    s.generate(b.ub.data(), round_);
  }
  b.u1.resize(round_);
  s.generate(b.u1.data(), round_);
  if (constants_[k].boosted) {
    b.u2.resize(round_);
    s.generate(b.u2.data(), round_);
  }
  return b;
}

CandidateBundle normal_kernel(rng::NormalTransform transform,
                              RoundBundle bundle) {
  const std::size_t n = bundle.ua.size();
  CandidateBundle out;
  out.sector = bundle.sector;
  out.round = bundle.round;
  out.attempts = n;
  out.n0.resize(n);
  std::vector<std::uint64_t> valid(ceil_div<std::size_t>(n, 64));
  out.n0.resize(rng::normal_attempt_block(
      transform, bundle.ua.data(),
      bundle.ub.empty() ? nullptr : bundle.ub.data(), n, out.n0.data(),
      valid.data()));
  out.u1 = std::move(bundle.u1);
  out.u2 = std::move(bundle.u2);
  return out;
}

GammaRejectKernel::GammaRejectKernel(
    std::vector<rng::GammaConstants> constants)
    : constants_(std::move(constants)) {
  DWI_REQUIRE(!constants_.empty(), "pipeline: need at least one sector");
}

AcceptedBlock GammaRejectKernel::run(const CandidateBundle& bundle) {
  DWI_ASSERT(bundle.sector < constants_.size());
  const rng::GammaConstants& k = constants_[bundle.sector];
  const std::size_t n_valid = bundle.n0.size();
  DWI_REQUIRE(bundle.u1.size() >= n_valid,
              "pipeline: candidate bundle under-provisioned u1");

  AcceptedBlock out;
  out.sector = bundle.sector;
  out.values.resize(n_valid);
  std::vector<std::uint64_t> ok(ceil_div<std::size_t>(n_valid, 64));
  const rng::simd::Kernels& simd = rng::simd::active_kernels();
  const std::size_t n_accepted = simd.gamma_attempt_block(
      bundle.n0.data(), bundle.u1.data(), n_valid, k, out.values.data(),
      ok.data());
  simd.compact_block(out.values.data(), ok.data(), n_valid, out.values.data());
  out.values.resize(n_accepted);
  if (k.boosted && n_accepted > 0) {
    DWI_REQUIRE(bundle.u2.size() >= n_accepted,
                "pipeline: candidate bundle under-provisioned u2");
    simd.gamma_correct_block(out.values.data(), bundle.u2.data(), n_accepted,
                             k);
  }
  attempts_ += bundle.attempts;
  accepted_ += n_accepted;
  return out;
}

double expected_accept_per_attempt(rng::NormalTransform transform) {
  // Marsaglia-Tsang acceptance given a valid normal is ≥ the squeeze
  // mass; 0.95 is conservative for every α the CreditRisk+ sectors use
  // (α ∈ [1/v, 1/v + 1]). Under-estimating only costs one extra staged
  // epoch, never correctness.
  return rng::analytic_acceptance(transform) * 0.95;
}

}  // namespace dwi::core
