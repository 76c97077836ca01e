#include "finance/pipeline.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/pipeline_kernels.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "rng/mersenne_twister.h"
#include "rng/philox.h"

namespace dwi::finance {

namespace {

/// Scenarios per run_piped wave, in scenario blocks: 16 × 256 = 4096 at
/// the default block, 25 waves per 100k-scenario call.
constexpr std::uint64_t kWaveBlocks = 16;

void validate(const Portfolio& portfolio, const PipelineConfig& cfg) {
  DWI_REQUIRE(portfolio.num_sectors() >= 1, "pipeline: need a sector");
  DWI_REQUIRE(cfg.num_scenarios >= 2, "pipeline: need at least two scenarios");
  DWI_REQUIRE(cfg.round >= 1, "pipeline: round size must be at least 1");
  DWI_REQUIRE(cfg.scenario_block >= 1,
              "pipeline: scenario block must be at least 1");
}

std::vector<rng::GammaConstants> sector_constants(const Portfolio& portfolio) {
  std::vector<rng::GammaConstants> constants;
  constants.reserve(portfolio.num_sectors());
  for (const Sector& s : portfolio.sectors()) {
    constants.push_back(rng::GammaConstants::from_sector_variance(
        static_cast<float>(s.variance)));
  }
  return constants;
}

core::StreamConfig stream_config(const PipelineConfig& cfg) {
  core::StreamConfig scfg;
  scfg.strategy = cfg.strategy;
  scfg.seed = static_cast<std::uint32_t>(cfg.seed);
  scfg.stride = cfg.substream_stride;
  return scfg;
}

}  // namespace

LossDistribution run_staged(const Portfolio& portfolio,
                            const PipelineConfig& cfg, PipelineStats* stats) {
  validate(portfolio, cfg);
  const std::size_t K = portfolio.num_sectors();
  auto constants = sector_constants(portfolio);
  core::UniformKernel uniform(stream_config(cfg), cfg.transform, constants,
                              cfg.round);
  core::GammaRejectKernel reject(std::move(constants));
  const double per_attempt = core::expected_accept_per_attempt(cfg.transform);

  PipelineStats st;
  std::vector<std::vector<float>> acc(K);
  for (std::size_t k = 0; k < K; ++k) {
    std::vector<float>& a = acc[k];
    a.reserve(cfg.num_scenarios);
    while (a.size() < cfg.num_scenarios) {
      ++st.epochs;
      // Kernel launch 1 — uniform RNG: size this epoch's rounds from
      // the analytic acceptance estimate and materialize every bundle
      // (the host round-trip the piped mode eliminates).
      const double need = static_cast<double>(cfg.num_scenarios - a.size());
      const auto n_rounds =
          static_cast<std::size_t>(
              need / (per_attempt * static_cast<double>(cfg.round))) +
          1;
      std::vector<core::RoundBundle> rounds;
      rounds.reserve(n_rounds);
      for (std::size_t r = 0; r < n_rounds; ++r) {
        rounds.push_back(uniform.next_round(k));
      }
      st.rounds_produced += n_rounds;

      // Kernel launch 2 — normal transform over the materialized rounds.
      std::vector<core::CandidateBundle> candidates;
      candidates.reserve(n_rounds);
      for (auto& b : rounds) {
        candidates.push_back(core::normal_kernel(cfg.transform, std::move(b)));
      }
      rounds.clear();

      // Kernel launch 3 — gamma rejection; the sector keeps the first
      // num_scenarios accepted variates (surplus discarded, per the
      // tape contract in core/pipeline_kernels.h).
      for (const auto& c : candidates) {
        if (a.size() >= cfg.num_scenarios) {
          ++st.bundles_discarded;
          continue;
        }
        const core::AcceptedBlock blk = reject.run(c);
        const std::size_t take =
            std::min<std::size_t>(blk.values.size(),
                                  cfg.num_scenarios - a.size());
        a.insert(a.end(), blk.values.begin(),
                 blk.values.begin() + static_cast<std::ptrdiff_t>(take));
      }
    }
  }

  // Kernel launches 4 and 5 — intensity, then the serial Poisson
  // draws, over the gathered scenario rows one scenario_block at a
  // time, so the intensity buffer stays one block long.
  ScenarioAggregator agg(portfolio, cfg.seed);
  const std::size_t N = portfolio.num_obligors();
  std::vector<float> rows(cfg.scenario_block * K);
  std::vector<double> lambda(cfg.scenario_block * N);
  for (std::uint64_t s = 0; s < cfg.num_scenarios; s += cfg.scenario_block) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(cfg.scenario_block, cfg.num_scenarios - s));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < K; ++k) rows[r * K + k] = acc[k][s + r];
    }
    agg.intensities(rows.data(), n, lambda.data());
    agg.consume(lambda.data(), n);
  }

  st.attempts = reject.attempts();
  st.accepted = reject.accepted();
  if (stats != nullptr) *stats = st;
  return std::move(agg).finish();
}

LossDistribution run_piped(const Portfolio& portfolio,
                           const PipelineConfig& cfg, PipelineStats* stats) {
  validate(portfolio, cfg);
  const std::size_t K = portfolio.num_sectors();
  const std::size_t N = portfolio.num_obligors();
  const std::size_t T = exec::thread_count();
  auto constants = sector_constants(portfolio);
  core::UniformKernel uniform(stream_config(cfg), cfg.transform, constants,
                              cfg.round);
  // One rejection kernel per sector work-item: its counters are the
  // only state run() mutates.
  std::vector<core::GammaRejectKernel> reject(
      K, core::GammaRejectKernel(std::move(constants)));
  ScenarioAggregator agg(portfolio, cfg.seed);

  const std::uint64_t wave = kWaveBlocks * cfg.scenario_block;
  const std::uint64_t waves = (cfg.num_scenarios + wave - 1) / wave;
  const auto wave_rows = [&](std::uint64_t w) {
    return static_cast<std::size_t>(
        std::min(wave, cfg.num_scenarios - w * wave));
  };

  // draws[w % 3][k]: sector k's accepted values for wave w, followed
  // while wave w is sampled by the surplus of its last round, which
  // moves to draws[(w + 1) % 3][k] — the buffer wave w − 2 freed.
  std::vector<std::vector<float>> draws[3];
  for (auto& d : draws) d.resize(K);
  const std::size_t max_rows = wave_rows(0);
  std::vector<float> rows(max_rows * K);
  std::vector<double> lambda[2];
  for (auto& l : lambda) l.resize(max_rows * N);

  // Wave w runs, as one parallel_for: the serial Poisson consumer over
  // wave w − 2 (index 0, so the longest task is claimed first), the K
  // sector work-items of wave w, and T intensity chunks of wave w − 1.
  // The three touch disjoint buffers, and each sector work-item only
  // its own substream, so no schedule can move a bit.
  for (std::uint64_t w = 0; w < waves + 2; ++w) {
    exec::parallel_for(1 + K + T, [&](std::size_t i) {
      if (i == 0) {
        if (w >= 2) agg.consume(lambda[w % 2].data(), wave_rows(w - 2));
      } else if (i <= K) {
        if (w >= waves) return;
        // Sector work-item (Listing 2's MAINLOOP): uniform → normal →
        // reject on its own substream until it holds wave w's values.
        const std::size_t k = i - 1;
        const std::size_t need = wave_rows(w);
        std::vector<float>& cur = draws[w % 3][k];
        while (cur.size() < need) {
          const core::AcceptedBlock blk = reject[k].run(
              core::normal_kernel(cfg.transform, uniform.next_round(k)));
          cur.insert(cur.end(), blk.values.begin(), blk.values.end());
        }
        draws[(w + 1) % 3][k].assign(
            cur.begin() + static_cast<std::ptrdiff_t>(need), cur.end());
        cur.resize(need);
      } else {
        if (w == 0 || w > waves) return;
        // Intensity chunk c of wave w − 1: gather its scenario-major
        // rows, then the const half of the aggregator.
        const std::size_t c = i - 1 - K;
        const std::size_t n = wave_rows(w - 1);
        const std::size_t lo = n * c / T;
        const std::size_t hi = n * (c + 1) / T;
        const auto& src = draws[(w - 1) % 3];
        for (std::size_t r = lo; r < hi; ++r) {
          for (std::size_t k = 0; k < K; ++k) rows[r * K + k] = src[k][r];
        }
        agg.intensities(rows.data() + lo * K, hi - lo,
                        lambda[(w - 1) % 2].data() + lo * N);
      }
    });
  }

  PipelineStats st;
  for (std::size_t k = 0; k < K; ++k) {
    st.rounds_produced += uniform.rounds_produced(k);
    st.attempts += reject[k].attempts();
    st.accepted += reject[k].accepted();
  }
  if (stats != nullptr) *stats = st;
  return std::move(agg).finish();
}

LossDistribution run_scalar_reference(const Portfolio& portfolio,
                                      const PipelineConfig& cfg) {
  validate(portfolio, cfg);
  // One scalar sampler per sector, one per-draw uniform at a time
  // through a std::function — the pre-pipeline architecture.
  struct SectorStream {
    rng::GammaSampler sampler;
    std::optional<rng::MersenneTwister> mt;
    std::optional<rng::Philox> px;
  };
  auto streams = std::make_shared<std::vector<SectorStream>>();
  streams->reserve(portfolio.num_sectors());
  const core::StreamConfig scfg = stream_config(cfg);
  for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
    SectorStream s{
        rng::GammaSampler(
            rng::GammaConstants::from_sector_variance(
                static_cast<float>(portfolio.sectors()[k].variance)),
            cfg.transform),
        std::nullopt, std::nullopt};
    switch (cfg.strategy) {
      case rng::StreamStrategy::kCounterBased:
        s.px.emplace(rng::CounterSubstreams(scfg.seed, scfg.stride).stream(k));
        break;
      case rng::StreamStrategy::kDistinctSeeds:
        s.mt.emplace(rng::mt19937_params(),
                     scfg.seed + static_cast<std::uint32_t>(k) * 7919u);
        break;
    }
    streams->push_back(std::move(s));
  }
  const McConfig mc{cfg.num_scenarios, cfg.seed};
  const GammaSource source = [streams](std::uint64_t,
                                       std::size_t sector) -> double {
    auto& s = (*streams)[sector];
    return static_cast<double>(s.sampler.sample([&s]() -> std::uint32_t {
      return s.px ? s.px->next() : s.mt->next();
    }));
  };
  return simulate_losses(portfolio, mc, source);
}

}  // namespace dwi::finance
