// CreditRisk+ as five stage kernels:
//
//   uniform RNG → normal transform → gamma rejection → intensity → Poisson
//  (per-sector     (Marsaglia-Bray /   (Marsaglia-Tsang   (λ and     (serial
//   substreams)     ICDF blocks)        predicate + α<1    exp(−λ)    default
//                                       correction)        per        counts,
//                                                          obligor)   loss sums)
//
// The last two stages are ScenarioAggregator's two halves. The
// intensity stage is a pure map, independent per scenario; the Poisson
// stage holds the only loop-carried dependency of the aggregation, the
// one default-count engine, so splitting them lets the exp() work run
// beside the serial draws instead of in front of them — the paper's
// move of pulling the dependency out of the datapath (Listing 2),
// applied across stages.
//
// Three runners over the same stage kernels (core/pipeline_kernels):
//
//   run_staged: each kernel runs to completion and materializes its
//     whole output before the next one starts — the host-round-trip
//     baseline. Because rejection makes the uniform demand
//     data-dependent, the staged path runs *epochs*, one sector at a
//     time: size the sector's rounds from the analytic acceptance
//     estimate, materialize them, run the normal transform, reject, and
//     loop back to the host when the sector came up short (each epoch
//     is one more per-sector host round-trip, counted in
//     PipelineStats::epochs). The intensity and Poisson launches then
//     alternate over the gathered rows one scenario_block at a time,
//     so the intensity buffer stays one block long.
//
//   run_piped: sector work-items on run_sector_waves, the one wave
//     schedule, which served CreditRisk+ requests (serve/request.cpp)
//     share. Each sector runs uniform → normal → reject, a round at a
//     time, on its own substream and stops at its own quota, like
//     Listing 2's MAINLOOP. run_sector_waves runs sectors, intensity chunks
//     and the serial Poisson consumer as dependent tasks on the exec
//     pool (exec::run_task_graph), in waves of 16 scenario blocks.
//     Tasks meet only where data flows, as Listing 1's work-items do,
//     and no barrier ends a wave: a sector samples wave w after wave
//     w − 1 into one of four per-wave draw buffers; wave w's intensity
//     chunks wait for every sector, its consumer for them and for
//     consumer w − 1. It starts no threads and runs serially on one
//     thread.
//
//   run_scalar_reference: the pre-pipe architecture — per-draw scalar
//     samplers behind a GammaSource callback feeding simulate_losses —
//     kept as the end-to-end baseline the benches compare against.
//
// Determinism: run_staged and run_piped are bit-identical to each
// other for every round size, scenario-block size and exec-pool thread
// count (the per-sector uniform tape is fixed by the layout contract in
// core/pipeline_kernels.h; tests/test_pipeline.cpp pins it, and
// Golden.CreditRiskPipelineFingerprints pins the bytes).
// run_scalar_reference samples the same model through a different
// (per-draw) tape, so it matches statistically, not bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/pipeline_kernels.h"
#include "finance/creditrisk_plus.h"
#include "finance/portfolio.h"
#include "rng/normal.h"
#include "rng/stream_strategy.h"

namespace dwi::finance {

struct PipelineConfig {
  std::uint64_t num_scenarios = 10'000;
  /// Seeds both the sector substream master (core::StreamConfig::seed)
  /// and the aggregation stage's Poisson engine.
  std::uint64_t seed = 1;
  /// Has one value. It stays only because perfbench's
  /// creditrisk_pipeline copies it into core::StreamConfig::strategy.
  rng::StreamStrategy strategy = rng::StreamStrategy::kCounterBased;
  rng::NormalTransform transform = rng::NormalTransform::kMarsagliaBray;

  /// Attempts per uniform round — part of the tape contract: changing
  /// it changes every sector's variate sequence.
  std::size_t round = 1024;
  /// Scenarios per intensity/Poisson launch in run_staged; run_piped's
  /// waves are 16 blocks long.
  std::size_t scenario_block = 256;
  /// Master-sequence outputs reserved per sector substream.
  std::uint64_t substream_stride = 1ull << 26;
};

/// Observability of one run (all runners fill what applies to them).
struct PipelineStats {
  std::uint64_t rounds_produced = 0;    ///< uniform bundles generated
  std::uint64_t bundles_discarded = 0;  ///< staged surplus; piped: 0
  std::uint64_t attempts = 0;           ///< rejection-stage attempts
  std::uint64_t accepted = 0;           ///< accepted gamma variates
  std::size_t epochs = 0;               ///< staged per-sector round-trips

  // Stall counts of the former five-thread pipe chain. run_piped has
  // no pipe and leaves them 0; they stay until perfbench stops reading
  // them.
  std::uint64_t uniform_pipe_full = 0;
  std::uint64_t normal_pipe_full = 0;
  std::uint64_t scenario_pipe_full = 0;
  std::uint64_t normal_pipe_empty = 0;
  std::uint64_t gamma_pipe_empty = 0;
  std::uint64_t aggregate_pipe_empty = 0;
};

/// Staged baseline: host-sequenced kernel launches with materialized
/// intermediate buffers (epochs on shortfall).
LossDistribution run_staged(const Portfolio& portfolio,
                            const PipelineConfig& cfg,
                            PipelineStats* stats = nullptr);

/// One sector work-item's fill: append sector `k`'s next accepted
/// draws, in its tape order, to `draws` until it holds at least `n`.
/// Calls for one sector never overlap; different sectors' may.
using SectorFill =
    std::function<void(std::size_t k, std::vector<float>& draws,
                       std::size_t n)>;

/// The wave schedule: `scenarios` scenarios of `portfolio`, each sector
/// sampled by `fill`, aggregated by a ScenarioAggregator seeded with
/// `poisson_seed` in waves of 16 `scenario_block`s. A fill's surplus
/// opens the sector's next wave, so the result is that of
/// simulate_losses on the sectors' draw sequences, whatever the block,
/// thread count or schedule.
LossDistribution run_sector_waves(const Portfolio& portfolio,
                                  std::uint64_t poisson_seed,
                                  std::uint64_t scenarios,
                                  std::size_t scenario_block,
                                  const SectorFill& fill);

/// run_sector_waves over the stage kernels' sector work-items.
/// Bit-identical to run_staged.
LossDistribution run_piped(const Portfolio& portfolio,
                           const PipelineConfig& cfg,
                           PipelineStats* stats = nullptr);

/// Pre-change end-to-end path (per-draw samplers + GammaSource
/// callback into simulate_losses); the bench's staged-scalar baseline.
LossDistribution run_scalar_reference(const Portfolio& portfolio,
                                      const PipelineConfig& cfg);

}  // namespace dwi::finance
