#include "finance/pipeline.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/pipeline_kernels.h"
#include "hls/dataflow.h"
#include "hls/pipe.h"
#include "rng/jump.h"
#include "rng/mersenne_twister.h"
#include "rng/philox.h"

namespace dwi::finance {

namespace {

/// Payload of the gamma → intensity pipe: a block of consecutive
/// scenarios, each row holding every sector's draw (scenario-major,
/// the transfer-unit layout of §IV-B).
struct ScenarioRows {
  std::uint64_t first = 0;  ///< index of the first scenario in the block
  std::size_t rows = 0;
  std::vector<float> data;  ///< rows × num_sectors
};

void validate(const Portfolio& portfolio, const PipelineConfig& cfg) {
  DWI_REQUIRE(portfolio.num_sectors() >= 1, "pipeline: need a sector");
  DWI_REQUIRE(cfg.num_scenarios >= 2, "pipeline: need at least two scenarios");
  DWI_REQUIRE(cfg.round >= 1, "pipeline: round size must be at least 1");
  DWI_REQUIRE(cfg.pipe_depth >= 1, "pipeline: pipe depth must be at least 1");
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
  for (auto& a : acc) a.reserve(cfg.num_scenarios);

  bool all_done = false;
  while (!all_done) {
    ++st.epochs;
    // Kernel launch 1 — uniform RNG: size this epoch's rounds per
    // sector from the analytic acceptance estimate and materialize
    // every bundle (the host round-trip the piped mode eliminates).
    std::vector<core::RoundBundle> rounds;
    for (std::size_t k = 0; k < K; ++k) {
      const std::uint64_t have = acc[k].size();
      if (have >= cfg.num_scenarios) continue;
      const double need = static_cast<double>(cfg.num_scenarios - have);
      const auto n_rounds =
          static_cast<std::size_t>(
              need / (per_attempt * static_cast<double>(cfg.round))) +
          1;
      for (std::size_t r = 0; r < n_rounds; ++r) {
        rounds.push_back(uniform.next_round(k));
      }
    }
    st.rounds_produced += rounds.size();

    // Kernel launch 2 — normal transform over the materialized rounds.
    std::vector<core::CandidateBundle> candidates;
    candidates.reserve(rounds.size());
    for (auto& b : rounds) {
      candidates.push_back(core::normal_kernel(cfg.transform, std::move(b)));
    }
    rounds.clear();

    // Kernel launch 3 — gamma rejection; each sector keeps the first
    // num_scenarios accepted variates (surplus discarded, per the tape
    // contract in core/pipeline_kernels.h).
    for (const auto& c : candidates) {
      auto& a = acc[c.sector];
      if (a.size() >= cfg.num_scenarios) {
        ++st.bundles_discarded;
        continue;
      }
      core::AcceptedBlock blk = reject.run(c);
      const std::size_t take =
          std::min<std::size_t>(blk.values.size(),
                                cfg.num_scenarios - a.size());
      a.insert(a.end(), blk.values.begin(),
               blk.values.begin() + static_cast<std::ptrdiff_t>(take));
    }
    all_done = true;
    for (const auto& a : acc) {
      if (a.size() < cfg.num_scenarios) all_done = false;
    }
  }

  // Kernel launches 4 and 5 — intensity, then the serial Poisson
  // draws, over the gathered scenario rows one scenario_block at a
  // time, so the threshold buffer stays one block long.
  ScenarioAggregator agg(portfolio, cfg.seed);
  const std::size_t N = portfolio.num_obligors();
  std::vector<float> rows(cfg.scenario_block * K);
  std::vector<double> thr(cfg.scenario_block * N);
  for (std::uint64_t s = 0; s < cfg.num_scenarios; s += cfg.scenario_block) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(cfg.scenario_block, cfg.num_scenarios - s));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < K; ++k) rows[r * K + k] = acc[k][s + r];
    }
    agg.intensities(rows.data(), n, thr.data());
    agg.consume(thr.data(), n);
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
  auto constants = sector_constants(portfolio);
  core::UniformKernel uniform(stream_config(cfg), cfg.transform, constants,
                              cfg.round);
  core::GammaRejectKernel reject(std::move(constants));

  hls::Pipe<core::RoundBundle> round_pipe(cfg.pipe_depth, "uniform.normal");
  hls::Pipe<core::CandidateBundle> cand_pipe(cfg.pipe_depth, "normal.gamma");
  hls::Pipe<ScenarioRows> scen_pipe(cfg.pipe_depth, "gamma.intensity");
  // Intensity thresholds, rows × num_obligors per scenario block.
  hls::Pipe<std::vector<double>> thr_pipe(cfg.pipe_depth, "intensity.poisson");
  // Backward control channel: one done token per sector, depth K so
  // try_write never fails and the rejection kernel never blocks on it.
  hls::Pipe<std::uint32_t> done_pipe(K, "gamma.uniform.done");

  PipelineStats st;
  ScenarioAggregator agg(portfolio, cfg.seed);

  hls::DataflowRegion region;

  // Stage 1 — uniform RNG kernel: free-runs rounds, round-robin over
  // the sectors not yet reported done. A sector's rounds still leave in
  // order, so downstream sees the fixed tape regardless of how many
  // surplus rounds were in flight when its done token arrived.
  region.add_process("uniform_kernel", [&] {
    std::vector<char> done(K, 0);
    std::size_t remaining = K;
    std::size_t k = 0;
    std::uint64_t produced = 0;
    std::uint32_t token = 0;
    while (remaining > 0) {
      while (done_pipe.try_read(&token)) {
        if (done[token] == 0) {
          done[token] = 1;
          --remaining;
        }
      }
      if (remaining == 0) break;
      while (done[k] != 0) k = (k + 1) % K;
      round_pipe.write(uniform.next_round(k));
      ++produced;
      k = (k + 1) % K;
    }
    round_pipe.close();
    st.rounds_produced = produced;
  });

  // Stage 2 — normal-transform kernel: pure map, one bundle in/out.
  region.add_process("normal_kernel", [&] {
    core::RoundBundle b;
    while (round_pipe.read(&b)) {
      cand_pipe.write(core::normal_kernel(cfg.transform, std::move(b)));
    }
    cand_pipe.close();
  });

  // Stage 3 — gamma-rejection kernel: accumulates per-sector accepted
  // prefixes, reports quota-filled sectors backward, discards surplus
  // bundles, and re-blocks the draws scenario-major for the intensity
  // stage.
  region.add_process("gamma_reject_kernel", [&] {
    std::vector<std::vector<float>> acc(K);
    for (auto& a : acc) a.reserve(cfg.num_scenarios);
    std::vector<char> done(K, 0);
    std::uint64_t emitted = 0;
    std::uint64_t discarded = 0;

    const auto ready_rows = [&] {
      std::uint64_t m = cfg.num_scenarios;
      for (const auto& a : acc) {
        m = std::min<std::uint64_t>(m, a.size());
      }
      return m;
    };
    // Emit every complete scenario_block (plus the final partial block
    // once every sector is done) as soon as all sectors cross it.
    const auto flush_ready = [&] {
      while (true) {
        const std::uint64_t ready = ready_rows();
        const std::uint64_t avail = ready - emitted;
        const bool final_flush = ready == cfg.num_scenarios;
        if (avail == 0 || (avail < cfg.scenario_block && !final_flush)) break;
        const auto rows = static_cast<std::size_t>(
            std::min<std::uint64_t>(cfg.scenario_block, avail));
        ScenarioRows out;
        out.first = emitted;
        out.rows = rows;
        out.data.resize(rows * K);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t kk = 0; kk < K; ++kk) {
            out.data[r * K + kk] = acc[kk][emitted + r];
          }
        }
        emitted += rows;
        scen_pipe.write(std::move(out));
      }
    };

    core::CandidateBundle c;
    while (cand_pipe.read(&c)) {
      auto& a = acc[c.sector];
      if (a.size() >= cfg.num_scenarios) {
        ++discarded;  // surplus in flight after the done token
        continue;
      }
      core::AcceptedBlock blk = reject.run(c);
      const std::size_t take =
          std::min<std::size_t>(blk.values.size(),
                                cfg.num_scenarios - a.size());
      a.insert(a.end(), blk.values.begin(),
               blk.values.begin() + static_cast<std::ptrdiff_t>(take));
      if (a.size() >= cfg.num_scenarios && done[c.sector] == 0) {
        done[c.sector] = 1;
        const bool sent =
            done_pipe.try_write(static_cast<std::uint32_t>(c.sector));
        DWI_ASSERT(sent);  // depth K, one token per sector
      }
      flush_ready();
    }
    DWI_ASSERT(emitted == cfg.num_scenarios);
    scen_pipe.close();
    st.bundles_discarded = discarded;
  });

  // Stage 4 — intensity kernel: pure map from a block of scenario rows
  // to its Poisson thresholds (no state; ScenarioAggregator's const
  // half).
  region.add_process("intensity_kernel", [&] {
    ScenarioRows rows;
    while (scen_pipe.read(&rows)) {
      std::vector<double> thr(rows.rows * N);
      agg.intensities(rows.data.data(), rows.rows, thr.data());
      thr_pipe.write(std::move(thr));
    }
    thr_pipe.close();
  });

  // Stage 5 — Poisson kernel: the one loop-carried dependency, the
  // default-count engine, drawn in scenario order (bit-equal to
  // simulate_losses).
  region.add_process("poisson_kernel", [&] {
    std::vector<double> thr;
    while (thr_pipe.read(&thr)) agg.consume(thr.data(), thr.size() / N);
  });

  region.run();

  st.attempts = reject.attempts();
  st.accepted = reject.accepted();
  st.uniform_pipe_full = round_pipe.write_stalls();
  st.normal_pipe_full = cand_pipe.write_stalls();
  st.scenario_pipe_full = scen_pipe.write_stalls();
  st.normal_pipe_empty = round_pipe.read_stalls();
  st.gamma_pipe_empty = cand_pipe.read_stalls();
  st.aggregate_pipe_empty = scen_pipe.read_stalls();
  st.intensity_pipe_full = thr_pipe.write_stalls();
  st.poisson_pipe_empty = thr_pipe.read_stalls();
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
      case rng::StreamStrategy::kJumpAhead:
        s.mt.emplace(rng::SubstreamSplitter(scfg.jump_params, scfg.seed,
                                            scfg.stride)
                         .stream(k));
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
