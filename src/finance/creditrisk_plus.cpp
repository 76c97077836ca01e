#include "finance/creditrisk_plus.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <random>
#include <span>

#include "common/error.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
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
  // Sort keys map a double's bits one to one onto integers in the
  // numbers' order, −0 before +0 and NaNs (an infinite exposure's 0 · ∞)
  // last. A total order has one sorted permutation, so the exec pool's
  // chunking (T sorted chunks, then merges of pairs, pairs of pairs...)
  // cannot move a byte. Most losses of a book are +0.0 (no default), so
  // one pass stores the other m keys, as doubles, at the front of
  // losses_ and only those are sorted; the +0.0 run then goes between
  // the keys below it and the rest. Each chunk holds at least
  // kMinSortChunk keys: below that the pool's hand-off costs more than
  // the split saves (docs/PERF.md).
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  constexpr std::uint64_t kNegativeNaNs = 0x000F'FFFF'FFFF'FFFF;
  const auto key = [](double x) {
    const auto b = std::bit_cast<std::uint64_t>(x);
    return ((b & kSign) != 0 ? ~b : b | kSign) - kNegativeNaNs;
  };
  const auto loss = [](double k) {  // key's inverse, on a stored key
    const std::uint64_t b = std::bit_cast<std::uint64_t>(k) + kNegativeNaNs;
    return std::bit_cast<double>((b & kSign) != 0 ? b ^ kSign : ~b);
  };
  const auto below = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) < std::bit_cast<std::uint64_t>(b);
  };
  const std::uint64_t zero_key = key(0.0);
  const std::size_t n = losses_.size();
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key(losses_[i]);
    losses_[m] = std::bit_cast<double>(k);
    m += k != zero_key;
  }
  constexpr std::size_t kMinSortChunk = 1024;
  const std::size_t T =
      std::clamp<std::size_t>(m / kMinSortChunk, 1, exec::thread_count());
  const auto cut = [&](std::size_t c) {
    return losses_.begin() +
           static_cast<std::ptrdiff_t>(m * std::min(c, T) / T);
  };
  exec::parallel_for(T, [&](std::size_t c) {
    std::sort(cut(c), cut(c + 1), below);
  });
  for (std::size_t span = 2; span < 2 * T; span *= 2) {
    exec::parallel_for((T + span - 1) / span, [&](std::size_t j) {
      std::inplace_merge(cut(j * span), cut(j * span + span / 2),
                         cut(j * span + span), below);
    });
  }
  // [0, split) holds the keys below +0.0's, [split, m) those above.
  const auto split = static_cast<std::size_t>(
      std::lower_bound(cut(0), cut(T), std::bit_cast<double>(zero_key),
                       below) -
      cut(0));
  const std::size_t zeros = n - m;
  for (std::size_t i = m; i-- > split;) losses_[i + zeros] = loss(losses_[i]);
  std::fill_n(losses_.begin() + static_cast<std::ptrdiff_t>(split), zeros,
              0.0);
  for (std::size_t i = 0; i < split; ++i) losses_[i] = loss(losses_[i]);
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
  // NaNs sort last, so a tail holding one ends the array; its mean is NaN.
  if (std::isnan(losses_.back())) return losses_.back();
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

/// A default count for λ ≥ 12: libstdc++'s rejection method itself,
/// kept out of line so the small-mean loop stays small.
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
  scan_ = std::all_of(exposure_.begin(), exposure_.end(),
                      [](double e) { return std::isfinite(e); });
}

rng::simd::IntensityBook ScenarioAggregator::book() const {
  return {probability_.size(), num_sectors_, probability_.data(), w0_.data(),
          weights_.data()};
}

void ScenarioAggregator::intensities(const double* rows, std::size_t n,
                                     double* lambda) const {
  rng::simd::active_kernels().intensity_block_f64(book(), rows, n, lambda);
}

void ScenarioAggregator::intensities(const float* rows, std::size_t n,
                                     double* lambda) const {
  rng::simd::active_kernels().intensity_block_f32(book(), rows, n, lambda);
}

unsigned ScenarioAggregator::draw_count(double lambda) {
  if (lambda >= rng::simd::kPoissonRejectionMean) [[unlikely]] {
    return large_mean_count(lambda, engine_);
  }
  // libstdc++'s small-mean loop: count the uniforms whose running
  // product stays above exp(−λ) (its leading 1.0 · u is exact). A NaN
  // λ fails both compares: count 0, as in libstdc++.
  unsigned count = 0;
  double prod = rng::canonical_double(engine_());
  if (prod > kFirstDrawBound - lambda) {
    const double t = std::exp(-lambda);
    while (prod > t) {
      prod *= rng::canonical_double(engine_());
      ++count;
    }
  }
  return count;
}

void ScenarioAggregator::consume(const double* lambda, std::size_t n,
                                 double* obligor_losses) {
  const std::size_t N = exposure_.size();
  const std::size_t lanes = n * N;
  std::size_t row_end = N;  // the open scenario's lanes end here
  double loss = 0.0;
  const auto close_rows_to = [&](std::size_t lane) {
    for (; row_end <= lane; row_end += N) {
      losses_.push_back(loss);
      loss = 0.0;
    }
  };
  // Flat over the lanes (scenario-major): each scan serves the settled
  // lanes' first words from the engine's block in place, then the
  // scalar loop draws the lane the scan stopped at.
  for (std::size_t lane = 0; lane < lanes;) {
    if (scan_) {
      const std::span<const std::uint64_t> words = engine_.peek();
      const std::size_t len = std::min(lanes - lane, words.size());
      const std::size_t settled =
          rng::simd::active_kernels().poisson_first_draw_scan(
              words.data(), lambda + lane, len);
      engine_.advance(settled);
      if (obligor_losses != nullptr) {
        std::fill_n(obligor_losses + lane, settled, 0.0);
      }
      lane += settled;
      close_rows_to(lane);
      if (settled == len) continue;
    }
    // close_rows_to(lane) left row_end − N <= lane < row_end.
    const std::size_t i = lane + N - row_end;
    const double li =
        static_cast<double>(draw_count(lambda[lane])) * exposure_[i];
    if (obligor_losses != nullptr) obligor_losses[lane] = li;
    loss += li;
    close_rows_to(++lane);
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
  // Rows are gathered a block at a time, in the GammaSource's
  // (scenario, sector) call order, and each block runs both halves.
  constexpr std::uint64_t kBlock = 256;
  const std::size_t K = portfolio.num_sectors();
  ScenarioAggregator agg(portfolio, config.seed);
  std::vector<double> rows(kBlock * K);
  std::vector<double> lambda(kBlock * portfolio.num_obligors());
  for (std::uint64_t first = 0; first < config.num_scenarios;
       first += kBlock) {
    const auto n = static_cast<std::size_t>(
        std::min(kBlock, config.num_scenarios - first));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < K; ++k) rows[r * K + k] = gamma(first + r, k);
    }
    agg.intensities(rows.data(), n, lambda.data());
    agg.consume(lambda.data(), n);
  }
  return std::move(agg).finish();
}

}  // namespace dwi::finance
