// Tests for the resource-aware autotuner (src/tune): search
// determinism, resource-model pruning, and TunedConfig round-trips and
// stale-key rejection.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/error.h"
#include "fpga/device.h"
#include "fpga/resource_model.h"
#include "rng/configs.h"
#include "simt/platform.h"
#include "tune/autotuner.h"
#include "tune/tuned_config.h"

namespace dwi::tune {
namespace {

TunerOptions fast_options(std::uint64_t seed = 1) {
  TunerOptions opt;
  opt.seed = seed;
  opt.budget = 24;
  opt.passes = 2;
  opt.sim_scale_divisor = 16384;  // cheap probes; tests care about the
                                  // search contract, not the numbers
  return opt;
}

// ---- search determinism ----------------------------------------------

TEST(Autotuner, SameSeedSameTable3Config) {
  const auto& dev = fpga::adm_pcie_7v3();
  const auto& app = rng::config(rng::ConfigId::kConfig3);
  const TuneResult a = tune_table3(dev, app, fast_options(7));
  const TuneResult b = tune_table3(dev, app, fast_options(7));
  EXPECT_EQ(format_tuned_config(a.best), format_tuned_config(b.best));
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].point, b.trajectory[i].point) << i;
    EXPECT_DOUBLE_EQ(a.trajectory[i].objective, b.trajectory[i].objective)
        << i;
  }
}

TEST(Autotuner, BudgetCapsEvaluations) {
  TunerOptions opt = fast_options();
  opt.budget = 6;
  const auto& dev = fpga::adm_pcie_7v3();
  const TuneResult r =
      tune_table3(dev, rng::config(rng::ConfigId::kConfig1), opt);
  EXPECT_LE(r.evaluations, opt.budget);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_GE(r.best.modeled_throughput, r.fallback.modeled_throughput);
}

// ---- resource-model pruning ------------------------------------------

TEST(Autotuner, Table3PrunesInfeasiblePointsWithoutSpendingBudget) {
  // The table3 knob set deliberately includes work-item counts past
  // N_max and very deep FIFOs — the Table II model must reject them.
  const auto& dev = fpga::adm_pcie_7v3();
  const TuneResult r =
      tune_table3(dev, rng::config(rng::ConfigId::kConfig1), fast_options());
  EXPECT_GT(r.pruned_infeasible, 0u);
  EXPECT_TRUE(r.best.feasible);
  EXPECT_LE(r.evaluations, fast_options().budget);
  // Pruned trajectory points carry feasible=false and a zero objective.
  bool saw_pruned = false;
  for (const TrajectoryPoint& p : r.trajectory) {
    if (!p.feasible) {
      saw_pruned = true;
      EXPECT_EQ(p.objective, 0.0);
      EXPECT_FALSE(p.improved);
    }
  }
  EXPECT_TRUE(saw_pruned);
  // The winner itself must price within the device budget.
  fpga::DesignPoint point;
  point.work_items = r.best.work_items;
  point.stream_depth = r.best.stream_depth;
  point.burst_beats = r.best.burst_beats;
  EXPECT_TRUE(fpga::estimate_utilization(
                  dev, rng::config(rng::ConfigId::kConfig1), point)
                  .routable);
}

TEST(ResourceModel, DesignPointAtDefaultsMatchesTableIIPath) {
  // The tunable DesignPoint overload must be a strict generalization:
  // at the calibrated depth/burst it reproduces the legacy Table II
  // numbers bit-for-bit for every configuration at N_max.
  const auto& dev = fpga::adm_pcie_7v3();
  for (const rng::AppConfig& app : rng::all_configs()) {
    const unsigned nmax = fpga::max_work_items(dev, app);
    const auto legacy = fpga::estimate_utilization(dev, app, nmax);
    fpga::DesignPoint point;
    point.work_items = nmax;
    point.stream_depth = 64;
    point.burst_beats = app.uses_marsaglia_bray ? 16u : 18u;
    const auto tuned = fpga::estimate_utilization(dev, app, point);
    EXPECT_EQ(tuned.total.luts, legacy.total.luts) << app.name;
    EXPECT_EQ(tuned.total.ffs, legacy.total.ffs) << app.name;
    EXPECT_EQ(tuned.total.dsps, legacy.total.dsps) << app.name;
    EXPECT_EQ(tuned.total.bram36, legacy.total.bram36) << app.name;
    EXPECT_DOUBLE_EQ(tuned.slice_util, legacy.slice_util) << app.name;
    EXPECT_EQ(tuned.routable, legacy.routable) << app.name;
  }
}

TEST(ResourceModel, DepthAndBurstExtrasAreZeroAtDefaultsOnly) {
  const auto zero = [](const fpga::BlockResources& r) {
    return r.luts == 0 && r.ffs == 0 && r.dsps == 0 && r.bram36 == 0;
  };
  EXPECT_TRUE(zero(fpga::stream_fifo_extra(32)));
  EXPECT_TRUE(zero(fpga::stream_fifo_extra(64)));
  EXPECT_FALSE(zero(fpga::stream_fifo_extra(1024)));
  EXPECT_TRUE(zero(fpga::transfer_unit_extra(18)));
  EXPECT_FALSE(zero(fpga::transfer_unit_extra(128)));
  // Monotone: more storage never costs less.
  EXPECT_GE(fpga::stream_fifo_extra(2048).bram36,
            fpga::stream_fifo_extra(1024).bram36);
  EXPECT_GE(fpga::transfer_unit_extra(256).bram36,
            fpga::transfer_unit_extra(128).bram36);
}

// ---- fig5 ------------------------------------------------------------

TEST(Autotuner, Fig5RespectsNdRangeRuleAndNeverLoses) {
  for (const simt::PlatformId plat :
       {simt::PlatformId::kCpu, simt::PlatformId::kGpu,
        simt::PlatformId::kPhi}) {
    const TuneResult r = tune_fig5(
        plat, rng::config(rng::ConfigId::kConfig1), fast_options());
    EXPECT_TRUE(r.best.feasible);
    ASSERT_GT(r.best.local_size, 0u);
    EXPECT_EQ(r.best.global_size % r.best.local_size, 0u)
        << simt::to_string(plat);
    // The default local size is the paper's Fig 5a optimum; coordinate
    // descent only adopts strict improvements, so tuned >= default.
    EXPECT_GE(r.speedup(), 1.0) << simt::to_string(plat);
  }
}

// ---- TunedConfig wire format -----------------------------------------

TEST(TunedConfigFormat, RoundTripsEveryField) {
  TunedConfig cfg;
  cfg.workload = "table3:Config3";
  cfg.device = "adm-pcie-7v3";
  cfg.seed = 42;
  cfg.work_items = 8;
  cfg.stream_depth = 128;
  cfg.burst_beats = 64;
  cfg.batch_iterations = 8192;
  cfg.global_size = 1u << 20;
  cfg.local_size = 256;
  cfg.modeled_throughput = 1478712039.25;
  cfg.feasible = true;
  const std::string text = format_tuned_config(cfg);
  const TunedConfig back = parse_tuned_config(text);
  EXPECT_EQ(format_tuned_config(back), text);
  EXPECT_EQ(back.workload, cfg.workload);
  EXPECT_EQ(back.stream_depth, cfg.stream_depth);
  EXPECT_EQ(back.batch_iterations, cfg.batch_iterations);
  EXPECT_DOUBLE_EQ(back.modeled_throughput, cfg.modeled_throughput);
}

TEST(TunedConfigFormat, RejectsMalformedInput) {
  const std::string good = format_tuned_config(TunedConfig{});
  EXPECT_THROW((void)parse_tuned_config("nonsense v9\n"), dwi::Error);
  EXPECT_THROW((void)parse_tuned_config(good + "mystery_knob=3\n"),
               dwi::Error);
  EXPECT_THROW((void)parse_tuned_config(good + "work_items=eight\n"),
               dwi::Error);
  EXPECT_THROW(
      (void)parse_tuned_config("dwi-tuned-config v1\nno_equals_sign\n"),
      dwi::Error);
}

TEST(TunedConfigFormat, RejectsStaleStreamStrategyKey) {
  // Serving derives only counter-based substreams, so a config written
  // when the serve tuner still chose a stream strategy is refused as an
  // unknown key rather than half-read.
  const std::string stale =
      format_tuned_config(TunedConfig{}) + "stream_strategy=jump-ahead\n";
  try {
    (void)parse_tuned_config(stale);
    FAIL() << "stale stream_strategy key was accepted";
  } catch (const dwi::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'stream_strategy'"),
              std::string::npos)
        << e.what();
  }
}

TEST(TunedConfigFormat, RejectsStaleCycleSkippingKey) {
  // KernelSim has one event-driven engine and no skipping switch, so a
  // config written when the table3 tuner still chose it is refused as
  // an unknown key rather than half-read.
  const std::string stale =
      format_tuned_config(TunedConfig{}) + "cycle_skipping=true\n";
  try {
    (void)parse_tuned_config(stale);
    FAIL() << "stale cycle_skipping key was accepted";
  } catch (const dwi::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'cycle_skipping'"),
              std::string::npos)
        << e.what();
  }
}

TEST(TunedConfigFormat, RejectsStalePipeDepthKey) {
  // Serving has no resident pipeline, so a config written when the
  // serve tuner still chose its pipe depth is refused as an unknown key
  // rather than half-read.
  const std::string stale =
      format_tuned_config(TunedConfig{}) + "pipe_depth=8\n";
  try {
    (void)parse_tuned_config(stale);
    FAIL() << "stale pipe_depth key was accepted";
  } catch (const dwi::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'pipe_depth'"),
              std::string::npos)
        << e.what();
  }
}

TEST(TunedConfigFormat, RejectsStaleServeKeys) {
  // Serving has no tuner — its queue and batch bounds are plain
  // ServeConfig constants — so a config written when the serve tuner
  // still chose them is refused as an unknown key rather than half-read.
  for (const std::string key : {"threads", "max_batch", "queue_capacity"}) {
    const std::string stale =
        format_tuned_config(TunedConfig{}) + key + "=16\n";
    try {
      (void)parse_tuned_config(stale);
      FAIL() << "stale " << key << " key was accepted";
    } catch (const dwi::Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dwi::tune
