#include "finance/creditrisk_plus.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>

#include "common/error.h"
#include "rng/gamma.h"
#include "rng/mersenne_twister.h"

namespace dwi::finance {

GammaSource buffered_gamma_source(std::span<const float> buffer,
                                  std::size_t num_sectors) {
  DWI_REQUIRE(num_sectors >= 1, "need at least one sector");
  return [buffer, num_sectors](std::uint64_t scenario,
                               std::size_t sector) -> double {
    const std::uint64_t idx = scenario * num_sectors + sector;
    DWI_REQUIRE(idx < buffer.size(),
                "gamma buffer exhausted: generate more scenarios");
    return static_cast<double>(buffer[idx]);
  };
}

GammaSource sampler_gamma_source(const Portfolio& portfolio,
                                 std::uint32_t seed) {
  // One independent sampler + twister per sector, shared across calls.
  struct SectorStream {
    rng::GammaSampler sampler;
    rng::MersenneTwister mt;
  };
  auto streams = std::make_shared<std::vector<SectorStream>>();
  streams->reserve(portfolio.num_sectors());
  for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
    streams->push_back(SectorStream{
        rng::GammaSampler(
            rng::GammaConstants::from_sector_variance(
                static_cast<float>(portfolio.sectors()[k].variance)),
            rng::NormalTransform::kMarsagliaBray),
        rng::MersenneTwister(rng::mt19937_params(),
                             seed + static_cast<std::uint32_t>(k) * 7919u)});
  }
  return [streams](std::uint64_t, std::size_t sector) -> double {
    auto& s = (*streams)[sector];
    return static_cast<double>(
        s.sampler.sample([&s] { return s.mt.next(); }));
  };
}

LossDistribution::LossDistribution(std::vector<double> losses)
    : losses_(std::move(losses)) {
  DWI_REQUIRE(!losses_.empty(), "empty loss distribution");
  std::sort(losses_.begin(), losses_.end());
}

double LossDistribution::mean() const {
  double sum = 0.0;
  for (double l : losses_) sum += l;
  return sum / static_cast<double>(losses_.size());
}

double LossDistribution::variance() const {
  DWI_REQUIRE(losses_.size() > 1, "variance needs two scenarios");
  const double m = mean();
  double sum = 0.0;
  for (double l : losses_) sum += (l - m) * (l - m);
  return sum / static_cast<double>(losses_.size() - 1);
}

double LossDistribution::value_at_risk(double p) const {
  DWI_REQUIRE(p > 0.0 && p < 1.0, "confidence must be in (0, 1)");
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(losses_.size())) - 1);
  return losses_[std::min(idx, losses_.size() - 1)];
}

double LossDistribution::expected_shortfall(double p) const {
  const double var = value_at_risk(p);
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = losses_.rbegin(); it != losses_.rend() && *it >= var; ++it) {
    sum += *it;
    ++n;
  }
  DWI_ASSERT(n > 0);
  return sum / static_cast<double>(n);
}

namespace {

/// libstdc++ switches poisson_distribution from the product-of-uniforms
/// loop to Devroye's rejection method at this mean.
constexpr double kRejectionMean = 12.0;

template <typename Draw>
void intensity_rows(const Draw* rows, std::size_t n, std::size_t K,
                    const std::vector<double>& probability,
                    const std::vector<double>& w0,
                    const std::vector<double>& weights, double* lambda) {
  const std::size_t N = probability.size();
  for (std::size_t s = 0; s < n; ++s) {
    const Draw* draws = rows + s * K;
    double* out = lambda + s * N;
    // λ_i = p_i · (w_0 + Σ_k w_ik S_k): the CreditRisk+ conditional
    // Poisson intensity, in std::poisson_distribution's operation
    // order (w_0 first, sectors ascending, one product by p_i). The
    // obligors run side by side over the sector-major weights; each
    // keeps that order, so every λ keeps its bits.
    std::copy(w0.begin(), w0.end(), out);
    for (std::size_t k = 0; k < K; ++k) {
      const double S = static_cast<double>(draws[k]);
      const double* w = weights.data() + k * N;
      for (std::size_t i = 0; i < N; ++i) out[i] += w[i] * S;
    }
    for (std::size_t i = 0; i < N; ++i) out[i] *= probability[i];
  }
}

/// A default count for λ ≥ 12: libstdc++'s rejection method itself,
/// kept out of line so consume()'s small-mean loop stays small.
[[gnu::noinline]] unsigned large_mean_count(double lambda,
                                            rng::Mt19937_64& engine) {
  return std::poisson_distribution<unsigned>(lambda)(engine);
}

}  // namespace

ScenarioAggregator::ScenarioAggregator(const Portfolio& portfolio,
                                       std::uint64_t poisson_seed)
    : num_sectors_(portfolio.num_sectors()),
      engine_(poisson_seed),
      lambda_(portfolio.num_obligors()) {
  const std::size_t N = portfolio.num_obligors();
  probability_.reserve(N);
  exposure_.reserve(N);
  w0_.reserve(N);
  weights_.resize(num_sectors_ * N);
  for (std::size_t i = 0; i < N; ++i) {
    const Obligor& o = portfolio.obligors()[i];
    probability_.push_back(o.default_probability);
    exposure_.push_back(o.exposure);
    w0_.push_back(o.idiosyncratic_weight());
    for (std::size_t k = 0; k < num_sectors_; ++k) {
      weights_[k * N + i] = o.sector_weights[k];
    }
  }
}

void ScenarioAggregator::intensities(const double* rows, std::size_t n,
                                     double* lambda) const {
  intensity_rows(rows, n, num_sectors_, probability_, w0_, weights_, lambda);
}

void ScenarioAggregator::intensities(const float* rows, std::size_t n,
                                     double* lambda) const {
  intensity_rows(rows, n, num_sectors_, probability_, w0_, weights_, lambda);
}

void ScenarioAggregator::consume(const double* lambda, std::size_t n,
                                 double* obligor_losses) {
  const std::size_t N = exposure_.size();
  for (std::size_t s = 0; s < n; ++s) {
    double loss = 0.0;
    for (std::size_t i = 0; i < N; ++i) {
      const double lam = lambda[s * N + i];
      unsigned count = 0;
      if (lam >= kRejectionMean) [[unlikely]] {
        count = large_mean_count(lam, engine_);
      } else {
        // libstdc++'s small-mean loop: count the uniforms whose running
        // product stays above exp(−λ) (its leading 1.0 · u is exact).
        // A NaN λ fails both compares: count 0, as in libstdc++.
        double prod = rng::canonical_double(engine_());
        if (prod > kFirstDrawBound - lam) {
          const double t = std::exp(-lam);
          while (prod > t) {
            prod *= rng::canonical_double(engine_());
            ++count;
          }
        }
      }
      const double li = static_cast<double>(count) * exposure_[i];
      if (obligor_losses != nullptr) obligor_losses[s * N + i] = li;
      loss += li;
    }
    losses_.push_back(loss);
  }
}

void ScenarioAggregator::consume_row(const double* sector_draws) {
  intensities(sector_draws, 1, lambda_.data());
  consume(lambda_.data(), 1);
}

void ScenarioAggregator::consume_row(const float* sector_draws) {
  intensities(sector_draws, 1, lambda_.data());
  consume(lambda_.data(), 1);
}

LossDistribution ScenarioAggregator::finish() && {
  return LossDistribution(std::move(losses_));
}

LossDistribution simulate_losses(const Portfolio& portfolio,
                                 const McConfig& config,
                                 const GammaSource& gamma) {
  DWI_REQUIRE(config.num_scenarios >= 2, "need at least two scenarios");
  ScenarioAggregator agg(portfolio, config.seed);
  std::vector<double> sector_draw(portfolio.num_sectors());
  for (std::uint64_t s = 0; s < config.num_scenarios; ++s) {
    for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
      sector_draw[k] = gamma(s, k);
    }
    agg.consume_row(sector_draw.data());
  }
  return std::move(agg).finish();
}

}  // namespace dwi::finance
