// Inter-kernel pipeline tests, two layers:
//
//   * finance/pipeline: run_piped must be bit-identical to run_staged
//     for every exec-pool thread count, scenario-block size, stream
//     strategy and wave remainder (the tape contract of
//     core/pipeline_kernels.h), run exactly the rounds staged keeps,
//     and agree statistically with the scalar per-draw reference;
//   * fpga/pipeline_sim + scheduler: stall/cycle invariants of the
//     cycle-level model (deeper pipes never slower, convergence to the
//     analytic sink bound, determinism) and the pipe-depth-as-
//     dependence-distance RecMII of inter_kernel_chain_graph.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "exec/thread_pool.h"
#include "finance/pipeline.h"
#include "finance/portfolio.h"
#include "fpga/pipeline_sim.h"
#include "fpga/scheduler.h"

namespace dwi {
namespace {

finance::Portfolio small_portfolio() {
  return finance::Portfolio::synthetic(
      6, {{1.39, "representative"}, {0.8, "stable"}, {2.0, "volatile"}}, 11u);
}

bool bit_identical(const finance::LossDistribution& a,
                   const finance::LossDistribution& b) {
  return a.losses().size() == b.losses().size() &&
         std::memcmp(a.losses().data(), b.losses().data(),
                     a.losses().size() * sizeof(double)) == 0;
}

// ---------------------------------------------- finance/pipeline ----------

struct ThreadCountGuard {
  ~ThreadCountGuard() { exec::set_thread_count(0); }
};

// Piped and staged consume the same per-sector rounds: piped stops each
// sector at its quota, staged runs the same rounds and discards the
// surplus of its last epoch.
void expect_same_work(const finance::PipelineStats& piped,
                      const finance::PipelineStats& staged) {
  EXPECT_EQ(piped.rounds_produced,
            staged.rounds_produced - staged.bundles_discarded);
  EXPECT_EQ(piped.attempts, staged.attempts);
  EXPECT_EQ(piped.accepted, staged.accepted);
  EXPECT_EQ(piped.bundles_discarded, 0u);
}

TEST(PipelineIdentity, PipedMatchesStagedForEveryThreadCountBlockAndStrategy) {
  // A wave is 16 scenario blocks: cover a run shorter than one wave,
  // one that ends mid-wave, and one that ends exactly on a wave, on a
  // three-sector and a one-sector book.
  ThreadCountGuard guard;
  const finance::Portfolio books[] = {
      small_portfolio(),
      finance::Portfolio::synthetic(5, {{1.39, "only"}}, 7u)};
  const rng::StreamStrategy strategies[] = {
      rng::StreamStrategy::kDistinctSeeds,
      rng::StreamStrategy::kCounterBased};
  for (const finance::Portfolio& portfolio : books) {
    for (const auto strategy : strategies) {
      for (const std::size_t block :
           {std::size_t{1}, std::size_t{3}, std::size_t{256}}) {
        const std::uint64_t wave = 16 * block;
        for (const std::uint64_t scenarios :
             {wave - 5, 2 * wave + 7, 3 * wave}) {
          finance::PipelineConfig cfg;
          cfg.num_scenarios = scenarios;
          cfg.seed = 5;
          cfg.strategy = strategy;
          cfg.scenario_block = block;
          finance::PipelineStats staged_stats;
          const finance::LossDistribution staged =
              finance::run_staged(portfolio, cfg, &staged_stats);
          ASSERT_EQ(staged.scenarios(), scenarios);
          for (const unsigned threads : {1u, 2u, 3u, 8u}) {
            exec::set_thread_count(threads);
            finance::PipelineStats piped_stats;
            const finance::LossDistribution piped =
                finance::run_piped(portfolio, cfg, &piped_stats);
            EXPECT_TRUE(bit_identical(staged, piped))
                << "sectors=" << portfolio.num_sectors()
                << " strategy=" << static_cast<int>(strategy)
                << " block=" << block << " scenarios=" << scenarios
                << " threads=" << threads;
            expect_same_work(piped_stats, staged_stats);
          }
        }
      }
    }
  }
}

TEST(PipelineIdentity, RoundSizeIsPartOfTheTapeButBlockIsNot) {
  // Changing the scenario block re-cuts the waves but must not move a
  // bit; changing the round size re-cuts the uniform tape and
  // legitimately changes values.
  const finance::Portfolio portfolio = small_portfolio();
  finance::PipelineConfig cfg;
  cfg.num_scenarios = 300;
  cfg.seed = 3;
  const finance::LossDistribution base = finance::run_piped(portfolio, cfg);

  cfg.scenario_block = 7;
  EXPECT_TRUE(bit_identical(base, finance::run_piped(portfolio, cfg)));

  cfg.round = 512;  // different attempt rounds → different tape
  const finance::LossDistribution other = finance::run_piped(portfolio, cfg);
  EXPECT_FALSE(bit_identical(base, other));
  // ... but staged sees exactly the same re-cut tape.
  EXPECT_TRUE(bit_identical(other, finance::run_staged(portfolio, cfg)));
}

TEST(PipelineIdentity, ExecPoolThreadCountCannotMoveBits) {
  ThreadCountGuard guard;
  const finance::Portfolio portfolio = small_portfolio();
  finance::PipelineConfig cfg;
  cfg.num_scenarios = 400;
  cfg.seed = 9;
  exec::set_thread_count(1);
  const finance::LossDistribution serial = finance::run_piped(portfolio, cfg);
  const finance::LossDistribution serial_staged =
      finance::run_staged(portfolio, cfg);
  exec::set_thread_count(4);
  const finance::LossDistribution pooled = finance::run_piped(portfolio, cfg);
  const finance::LossDistribution pooled_staged =
      finance::run_staged(portfolio, cfg);
  EXPECT_TRUE(bit_identical(serial, pooled));
  EXPECT_TRUE(bit_identical(serial_staged, pooled_staged));
  EXPECT_TRUE(bit_identical(serial, serial_staged));
}

TEST(PipelineIdentity, ScalarReferenceAgreesStatistically) {
  // The per-draw reference samples the same model through a different
  // tape: means must agree loosely, bits must not be expected to.
  const finance::Portfolio portfolio = small_portfolio();
  finance::PipelineConfig cfg;
  cfg.num_scenarios = 20'000;
  cfg.seed = 17;
  const finance::LossDistribution piped = finance::run_piped(portfolio, cfg);
  const finance::LossDistribution scalar =
      finance::run_scalar_reference(portfolio, cfg);
  ASSERT_EQ(scalar.scenarios(), piped.scenarios());
  const double expected = portfolio.expected_loss();
  ASSERT_GT(expected, 0.0);
  EXPECT_NEAR(piped.mean() / expected, 1.0, 0.10);
  EXPECT_NEAR(scalar.mean() / expected, 1.0, 0.10);
  EXPECT_NEAR(scalar.mean() / piped.mean(), 1.0, 0.10);
}

TEST(PipelineStats, PipedRunReportsRoundsAcceptanceAndStalls) {
  const finance::Portfolio portfolio = small_portfolio();
  finance::PipelineConfig cfg;
  cfg.num_scenarios = 500;
  finance::PipelineStats piped_stats;
  (void)finance::run_piped(portfolio, cfg, &piped_stats);
  EXPECT_GT(piped_stats.rounds_produced, 0u);
  EXPECT_GT(piped_stats.attempts, 0u);
  // At least one gamma variate per (sector, scenario); rounds are
  // fixed-size, so the tail round over-produces.
  EXPECT_GE(piped_stats.accepted,
            cfg.num_scenarios * portfolio.num_sectors());
  EXPECT_GE(piped_stats.attempts, piped_stats.accepted);
  // No pipes left to stall on.
  EXPECT_EQ(piped_stats.uniform_pipe_full + piped_stats.normal_pipe_full +
                piped_stats.scenario_pipe_full +
                piped_stats.normal_pipe_empty +
                piped_stats.gamma_pipe_empty +
                piped_stats.aggregate_pipe_empty,
            0u);
  EXPECT_EQ(piped_stats.epochs, 0u);

  finance::PipelineStats staged_stats;
  (void)finance::run_staged(portfolio, cfg, &staged_stats);
  // At least one epoch per sector, one more for each short sizing.
  EXPECT_GE(staged_stats.epochs, portfolio.num_sectors());
  expect_same_work(piped_stats, staged_stats);
}

TEST(PipelineConfigValidation, RejectsDegenerateConfigs) {
  const finance::Portfolio portfolio = small_portfolio();
  finance::PipelineConfig cfg;
  cfg.num_scenarios = 1;  // below the minimum of 2
  EXPECT_THROW(finance::run_staged(portfolio, cfg), Error);
  EXPECT_THROW(finance::run_piped(portfolio, cfg), Error);
  cfg.num_scenarios = 100;
  cfg.scenario_block = 0;
  EXPECT_THROW(finance::run_staged(portfolio, cfg), Error);
  EXPECT_THROW(finance::run_piped(portfolio, cfg), Error);
  cfg.scenario_block = 256;
  cfg.round = 0;
  EXPECT_THROW(finance::run_piped(portfolio, cfg), Error);
}

// ------------------------------------------- fpga/pipeline_sim ------------

fpga::PipelineSimConfig chain_config(std::size_t depth) {
  fpga::PipelineSimConfig cfg;
  cfg.stages = {{"uniform", 1, 8, 1.0, 11},
                {"normal", 1, 24, 0.785, 22},
                {"gamma", 1, 64, 0.95, 33},
                {"aggregate", 1, 16, 1.0, 44}};
  cfg.pipe_depth = depth;
  cfg.outputs = 20'000;
  return cfg;
}

TEST(PipelineSim, DeeperPipesAreNeverSlower) {
  std::uint64_t prev = ~std::uint64_t{0};
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8},
                                  std::size_t{64}}) {
    const fpga::PipelineSimResult r =
        fpga::simulate_pipeline(chain_config(depth));
    EXPECT_GE(r.outputs, 20'000u);
    EXPECT_LE(r.cycles, prev) << "depth " << depth << " slowed the chain";
    prev = r.cycles;
  }
}

TEST(PipelineSim, DeterministicAcrossRuns) {
  const fpga::PipelineSimResult a = fpga::simulate_pipeline(chain_config(8));
  const fpga::PipelineSimResult b = fpga::simulate_pipeline(chain_config(8));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.bursts, b.bursts);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].tokens_out, b.stages[s].tokens_out);
    EXPECT_EQ(a.stages[s].full_stalls, b.stages[s].full_stalls);
    EXPECT_EQ(a.stages[s].empty_stalls, b.stages[s].empty_stalls);
  }
}

TEST(PipelineSim, ConvergesToTheAnalyticSinkBound) {
  fpga::PipelineSimConfig cfg = chain_config(64);
  cfg.outputs = 100'000;  // long run: startup transient is negligible
  const fpga::PipelineSimResult r = fpga::simulate_pipeline(cfg);
  const double bound = fpga::analytic_sink_rate(cfg);
  ASSERT_GT(bound, 0.0);
  // The achieved rate can exceed the steady-state bound slightly
  // (acceptance draws are stochastic around the mean) but must sit
  // within a tight band of it.
  EXPECT_NEAR(r.outputs_per_cycle() / bound, 1.0, 0.10);
}

TEST(PipelineSim, ShallowPipesStall) {
  // With 2-deep pipes, stages upstream of the gamma filter freeze on
  // full pipes and downstream ones starve.
  const fpga::PipelineSimResult r = fpga::simulate_pipeline(chain_config(2));
  std::uint64_t total_stalls = 0;
  for (const auto& st : r.stages) {
    total_stalls += st.full_stalls + st.empty_stalls;
  }
  EXPECT_GT(total_stalls, 0u);
}

TEST(PipelineSim, RejectsDegenerateConfigs) {
  fpga::PipelineSimConfig cfg = chain_config(8);
  cfg.stages.clear();
  EXPECT_THROW(fpga::simulate_pipeline(cfg), Error);
  cfg = chain_config(0);
  EXPECT_THROW(fpga::simulate_pipeline(cfg), Error);
  cfg = chain_config(8);
  cfg.stages[1].acceptance = 0.0;
  EXPECT_THROW(fpga::simulate_pipeline(cfg), Error);
  cfg = chain_config(8);
  cfg.stages[2].initiation_interval = 0;
  EXPECT_THROW(fpga::simulate_pipeline(cfg), Error);
}

// --------------------------------------- scheduler chain graph ------------

TEST(InterKernelChainGraph, PipeDepthIsTheDependenceDistance) {
  // Two kernels around one pipe: the FIFO-capacity recurrence carries
  // latency l0 + l1 over distance `depth`, so RecMII = ceil((l0+l1)/D).
  const std::vector<unsigned> lat = {10, 20};
  EXPECT_EQ(fpga::inter_kernel_chain_graph(lat, 1).recurrence_mii(), 30u);
  EXPECT_EQ(fpga::inter_kernel_chain_graph(lat, 3).recurrence_mii(), 10u);
  EXPECT_EQ(fpga::inter_kernel_chain_graph(lat, 30).recurrence_mii(), 1u);
}

TEST(InterKernelChainGraph, LongChainTakesTheWorstAdjacentPair) {
  const std::vector<unsigned> lat = {8, 24, 64, 16};
  // Adjacent-pair sums: 32, 88, 80 → worst 88.
  EXPECT_EQ(fpga::inter_kernel_chain_graph(lat, 1).recurrence_mii(), 88u);
  EXPECT_EQ(fpga::inter_kernel_chain_graph(lat, 8).recurrence_mii(), 11u);
  EXPECT_EQ(fpga::inter_kernel_chain_graph(lat, 64).recurrence_mii(), 2u);
}

TEST(InterKernelChainGraph, DeeperPipesMonotonicallyRelaxTheRecurrence) {
  const std::vector<unsigned> lat = {12, 48, 31};
  unsigned prev = ~0u;
  for (unsigned depth = 1; depth <= 16; ++depth) {
    const unsigned mii =
        fpga::inter_kernel_chain_graph(lat, depth).recurrence_mii();
    EXPECT_LE(mii, prev);
    prev = mii;
  }
  EXPECT_EQ(prev, static_cast<unsigned>(std::ceil((48.0 + 31.0) / 16.0)));
}

TEST(InterKernelChainGraph, SingleKernelHasNoRecurrence) {
  EXPECT_EQ(fpga::inter_kernel_chain_graph({40}, 1).recurrence_mii(), 1u);
  EXPECT_THROW(fpga::inter_kernel_chain_graph({}, 4), Error);
  EXPECT_THROW(fpga::inter_kernel_chain_graph({10, 10}, 0), Error);
}

}  // namespace
}  // namespace dwi
