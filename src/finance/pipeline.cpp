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
#include "rng/philox.h"

namespace dwi::finance {

namespace {

/// Scenarios per run_sector_waves wave, in scenario blocks: 16 × 256 =
/// 4096 at run_piped's default block, 25 waves per 100k-scenario call.
constexpr std::uint64_t kWaveBlocks = 16;

/// Per-sector draw slots in run_sector_waves: a sector samples at most
/// kDrawSlots − 1 waves past the last wave whose intensities are done.
constexpr std::uint64_t kDrawSlots = 4;

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

LossDistribution run_sector_waves(const Portfolio& portfolio,
                                  std::uint64_t poisson_seed,
                                  std::uint64_t scenarios,
                                  std::size_t scenario_block,
                                  const SectorFill& fill) {
  DWI_REQUIRE(scenario_block >= 1,
              "pipeline: scenario block must be at least 1");
  const std::size_t K = portfolio.num_sectors();
  const std::size_t N = portfolio.num_obligors();
  const std::size_t T = exec::thread_count();
  ScenarioAggregator agg(portfolio, poisson_seed);

  const std::uint64_t wave = kWaveBlocks * scenario_block;
  const std::uint64_t waves = (scenarios + wave - 1) / wave;
  const auto wave_rows = [&](std::uint64_t w) {
    return static_cast<std::size_t>(std::min(wave, scenarios - w * wave));
  };

  // draws[w % kDrawSlots][k]: sector k's accepted values for wave w,
  // followed while wave w is sampled by any surplus of its fill, which
  // moves to the next slot. rows and lambda hold two λ slots, w % 2, so
  // two waves' intensity chunks can run at once.
  std::vector<std::vector<float>> draws[kDrawSlots];
  for (auto& d : draws) d.resize(K);
  const std::size_t max_rows = wave_rows(0);
  std::vector<float> rows(2 * max_rows * K);
  std::vector<double> lambda(2 * max_rows * N);

  // Per wave w: S(k, w) samples sector k, I(c, w) is intensity chunk c
  // of T, C(w) is the serial consume(). The counters below are kept
  // under the helper's lock. A task touches only buffers its dependences
  // freed, a sector only its own substream: no schedule moves a bit.
  enum class Kind { kConsume, kIntensity, kSample };
  struct Task { Kind kind; std::uint64_t w; std::size_t i; };  // i: k or c
  std::vector<std::uint64_t> sampled(K, 0);  // waves sector k finished
  std::vector<bool> sampling(K, false);
  std::vector<std::size_t> sectors_done(waves, 0), chunks_started(waves, 0),
      chunks_done(waves, 0);
  std::uint64_t consumed = 0;
  bool consuming = false;

  const auto pick = [&]() -> std::optional<Task> {
    // C(w): every I(·, w) and C(w − 1) done. The critical path.
    if (!consuming && consumed < waves && chunks_done[consumed] == T) {
      consuming = true;
      return Task{Kind::kConsume, consumed, 0};
    }
    // I(c, w): every S(·, w) done, and λ slot w % 2 freed by C(w − 2).
    for (std::uint64_t w = consumed; w < std::min(waves, consumed + 2); ++w) {
      if (sectors_done[w] == K && chunks_started[w] < T) {
        return Task{Kind::kIntensity, w, chunks_started[w]++};
      }
    }
    // S(k, w), lowest w first: S(k, w − 1) done, and the slot it spills
    // into read by every I(·, w + 1 − kDrawSlots).
    std::optional<Task> best;
    for (std::size_t k = 0; k < K; ++k) {
      const std::uint64_t w = sampled[k];
      if (sampling[k] || w == waves || (best && best->w <= w)) continue;
      if (w + 1 >= kDrawSlots && chunks_done[w + 1 - kDrawSlots] < T) continue;
      best = Task{Kind::kSample, w, k};
    }
    if (best) sampling[best->i] = true;
    return best;
  };

  const auto run = [&](const Task& t) {
    const std::size_t n = wave_rows(t.w);
    double* lam = lambda.data() + t.w % 2 * max_rows * N;
    if (t.kind == Kind::kConsume) {
      agg.consume(lam, n);
    } else if (t.kind == Kind::kIntensity) {
      // Gather the chunk's scenario-major rows, then the const half of
      // the aggregator.
      const std::size_t lo = n * t.i / T;
      const std::size_t hi = n * (t.i + 1) / T;
      const auto& src = draws[t.w % kDrawSlots];
      float* dst = rows.data() + t.w % 2 * max_rows * K;
      for (std::size_t r = lo; r < hi; ++r) {
        for (std::size_t k = 0; k < K; ++k) dst[r * K + k] = src[k][r];
      }
      agg.intensities(dst + lo * K, hi - lo, lam + lo * N);
    } else {
      std::vector<float>& cur = draws[t.w % kDrawSlots][t.i];
      fill(t.i, cur, n);
      draws[(t.w + 1) % kDrawSlots][t.i].assign(
          cur.begin() + static_cast<std::ptrdiff_t>(n), cur.end());
      cur.resize(n);
    }
  };

  const auto done = [&](const Task& t) {
    if (t.kind == Kind::kConsume) {
      consuming = false;
      ++consumed;
    } else if (t.kind == Kind::kIntensity) {
      ++chunks_done[t.w];
    } else {
      sampling[t.i] = false;
      ++sampled[t.i];
      ++sectors_done[t.w];
    }
  };

  exec::run_task_graph(T, pick, run, done);
  return std::move(agg).finish();
}

LossDistribution run_piped(const Portfolio& portfolio,
                           const PipelineConfig& cfg, PipelineStats* stats) {
  validate(portfolio, cfg);
  const std::size_t K = portfolio.num_sectors();
  auto constants = sector_constants(portfolio);
  core::UniformKernel uniform(stream_config(cfg), cfg.transform, constants,
                              cfg.round);
  // One rejection kernel per sector work-item: its counters are the
  // only state run() mutates.
  std::vector<core::GammaRejectKernel> reject(
      K, core::GammaRejectKernel(std::move(constants)));

  // Sector work-item (Listing 2's MAINLOOP): uniform → normal → reject
  // on its own substream, a round at a time, until it holds n values.
  LossDistribution dist = run_sector_waves(
      portfolio, cfg.seed, cfg.num_scenarios, cfg.scenario_block,
      [&](std::size_t k, std::vector<float>& draws, std::size_t n) {
        while (draws.size() < n) {
          const core::AcceptedBlock blk = reject[k].run(
              core::normal_kernel(cfg.transform, uniform.next_round(k)));
          draws.insert(draws.end(), blk.values.begin(), blk.values.end());
        }
      });

  PipelineStats st;
  for (std::size_t k = 0; k < K; ++k) {
    st.rounds_produced += uniform.rounds_produced(k);
    st.attempts += reject[k].attempts();
    st.accepted += reject[k].accepted();
  }
  if (stats != nullptr) *stats = st;
  return dist;
}

LossDistribution run_scalar_reference(const Portfolio& portfolio,
                                      const PipelineConfig& cfg) {
  validate(portfolio, cfg);
  // One scalar sampler per sector, one per-draw uniform at a time
  // through a std::function — the pre-pipeline architecture.
  struct SectorStream {
    rng::GammaSampler sampler;
    rng::Philox px;
  };
  auto streams = std::make_shared<std::vector<SectorStream>>();
  streams->reserve(portfolio.num_sectors());
  const core::StreamConfig scfg = stream_config(cfg);
  const rng::CounterSubstreams subs(scfg.seed, scfg.stride);
  for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
    streams->push_back(SectorStream{
        rng::GammaSampler(
            rng::GammaConstants::from_sector_variance(
                static_cast<float>(portfolio.sectors()[k].variance)),
            cfg.transform),
        subs.stream(k)});
  }
  const McConfig mc{cfg.num_scenarios, cfg.seed};
  const GammaSource source = [streams](std::uint64_t,
                                       std::size_t sector) -> double {
    auto& s = (*streams)[sector];
    return static_cast<double>(
        s.sampler.sample([&s]() -> std::uint32_t { return s.px.next(); }));
  };
  return simulate_losses(portfolio, mc, source);
}

}  // namespace dwi::finance
