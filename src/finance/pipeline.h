// CreditRisk+ as a 5-stage inter-kernel pipeline:
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
// applied across kernels as in Zarch & Becchi's pipes.
//
// Three runners over the same stage kernels (core/pipeline_kernels):
//
//   run_staged: each kernel runs to completion and materializes its
//     whole output before the next one starts — the host-round-trip
//     baseline. Because rejection makes the uniform demand
//     data-dependent, the staged path runs *epochs*: size each kernel
//     launch from the analytic acceptance estimate, then loop back to
//     the host when a sector came up short (each epoch is one more
//     host round-trip, counted in PipelineStats::epochs). The
//     intensity and Poisson launches then alternate over the gathered
//     rows one scenario_block at a time, so the threshold buffer stays
//     one block long.
//
//   run_piped: all five kernels resident at once (one thread each, the
//     DATAFLOW execution model of hls/dataflow.h), chained by bounded
//     hls::Pipe channels. The rejection stage reports each finished
//     sector through a backward control pipe; the uniform kernel
//     free-runs rounds for unfinished sectors and the rejection stage
//     discards the few in-flight surplus bundles — the decoupled
//     producer/consumer idiom of the paper, lifted from work-items to
//     whole kernels. Sector batches flow end to end without touching
//     the host.
//
//   run_scalar_reference: the pre-pipe architecture — per-draw scalar
//     samplers behind a GammaSource callback feeding simulate_losses —
//     kept as the end-to-end baseline the benches compare against.
//
// Determinism: run_staged and run_piped are bit-identical to each
// other for every pipe depth, round size, scenario-block size and
// stream strategy (the per-sector uniform tape is fixed by the layout
// contract in core/pipeline_kernels.h; tests/test_pipeline.cpp pins
// it, and Golden.CreditRiskPipelineFingerprints pins the bytes).
// run_scalar_reference samples the same model through a different
// (per-draw) tape, so it matches statistically, not bit-for-bit.
#pragma once

#include <cstdint>

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
  rng::StreamStrategy strategy = rng::StreamStrategy::kCounterBased;
  rng::NormalTransform transform = rng::NormalTransform::kMarsagliaBray;

  /// Attempts per uniform round — part of the tape contract: changing
  /// it changes every sector's variate sequence.
  std::size_t round = 1024;
  /// Depth of the four forward inter-kernel pipes (bundles, not
  /// scalars). 1 serializes every handoff; see docs/PERF.md for
  /// tuning guidance.
  std::size_t pipe_depth = 8;
  /// Scenarios per block flowing through the gamma → intensity →
  /// Poisson pipes (and per intensity/Poisson launch in run_staged).
  std::size_t scenario_block = 256;
  /// Master-sequence outputs reserved per sector substream.
  std::uint64_t substream_stride = 1ull << 26;
};

/// Observability of one run (all runners fill what applies to them).
struct PipelineStats {
  std::uint64_t rounds_produced = 0;    ///< uniform bundles generated
  std::uint64_t bundles_discarded = 0;  ///< surplus after sector done
  std::uint64_t attempts = 0;           ///< rejection-stage attempts
  std::uint64_t accepted = 0;           ///< accepted gamma variates
  std::size_t epochs = 0;               ///< staged host round-trips

  // Piped mode: blocking-wait counts per pipe (hls::Pipe stall
  // counters), the host analogue of fpga::PipelineSim stall cycles.
  std::uint64_t uniform_pipe_full = 0;    ///< uniform blocked, pipe full
  std::uint64_t normal_pipe_full = 0;     ///< normal blocked, pipe full
  std::uint64_t scenario_pipe_full = 0;   ///< rejection blocked, pipe full
  std::uint64_t intensity_pipe_full = 0;  ///< intensity blocked, pipe full
  std::uint64_t normal_pipe_empty = 0;    ///< normal starved
  std::uint64_t gamma_pipe_empty = 0;     ///< rejection starved
  std::uint64_t aggregate_pipe_empty = 0; ///< intensity starved
  std::uint64_t poisson_pipe_empty = 0;   ///< Poisson starved
};

/// Staged baseline: host-sequenced kernel launches with materialized
/// intermediate buffers (epochs on shortfall).
LossDistribution run_staged(const Portfolio& portfolio,
                            const PipelineConfig& cfg,
                            PipelineStats* stats = nullptr);

/// Resident pipeline: five concurrent kernels over hls::Pipe channels.
/// Bit-identical to run_staged.
LossDistribution run_piped(const Portfolio& portfolio,
                           const PipelineConfig& cfg,
                           PipelineStats* stats = nullptr);

/// Pre-change end-to-end path (per-draw samplers + GammaSource
/// callback into simulate_losses); the bench's staged-scalar baseline.
LossDistribution run_scalar_reference(const Portfolio& portfolio,
                                      const PipelineConfig& cfg);

}  // namespace dwi::finance
