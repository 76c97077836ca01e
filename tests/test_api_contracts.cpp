// API-contract sweep: every public entry point rejects invalid inputs
// with dwi::Error (never UB, never silent acceptance), and the
// DEPENDENCE-false assertion of Listing 4 actually holds for the
// access patterns the transfer unit generates.
#include <gtest/gtest.h>

#include <thread>

#include "common/error.h"
#include "core/decoupled_work_items.h"
#include "core/fpga_app.h"
#include "core/gamma_work_item.h"
#include "finance/creditrisk_plus.h"
#include "fpga/kernel_sim.h"
#include "fpga/scheduler.h"
#include "hls/stream.h"
#include "minicl/runtime.h"
#include "power/trace.h"
#include "rng/gamma.h"
#include "rng/mersenne_twister.h"
#include "stats/distributions.h"
#include "stats/histogram.h"
#include "stats/ks_test.h"

namespace dwi {
namespace {

TEST(ApiContracts, StatsRejectInvalidInputs) {
  EXPECT_THROW(stats::Histogram(1.0, 1.0, 10), Error);
  EXPECT_THROW(stats::Histogram(0.0, 1.0, 0), Error);
  EXPECT_THROW(stats::ks_test(std::span<const double>{},
                              [](double) { return 0.5; }),
               Error);
  EXPECT_THROW(stats::gamma_pdf(1.0, -1.0, 1.0), Error);
  EXPECT_THROW(stats::gamma_quantile(1.5, 1.0, 1.0), Error);
}

TEST(ApiContracts, RngRejectsInvalidGeometry) {
  rng::MtParams p = rng::mt521_params();
  p.r = 0;
  EXPECT_THROW(rng::MersenneTwister{p}, Error);
  p = rng::mt521_params();
  p.m = 0;
  EXPECT_THROW(rng::MersenneTwister{p}, Error);
  EXPECT_THROW(rng::GammaConstants::make(-1.0f), Error);
}

TEST(ApiContracts, WorkItemConfigValidated) {
  core::GammaWorkItemConfig cfg;
  cfg.sector_variances = {};
  EXPECT_THROW(core::GammaWorkItem{cfg}, Error);
  cfg.sector_variances = {1.0f};
  cfg.outputs_per_sector = 0;
  EXPECT_THROW(core::GammaWorkItem{cfg}, Error);
}

TEST(ApiContracts, DecoupledTaskValidated) {
  core::DecoupledConfig cfg;
  cfg.work_items = 0;
  EXPECT_THROW(core::run_decoupled_work_items(
                   cfg, [](unsigned, hls::stream<float>&, std::uint64_t) {}),
               Error);
  cfg.work_items = 2;
  cfg.floats_per_work_item = 17;  // not beat-aligned
  EXPECT_THROW(core::run_decoupled_work_items(
                   cfg, [](unsigned, hls::stream<float>&, std::uint64_t) {}),
               Error);
}

TEST(ApiContracts, GammaTaskQuotaMismatchDetected) {
  core::DecoupledConfig cfg;
  cfg.work_items = 1;
  cfg.floats_per_work_item = 64;
  EXPECT_THROW(core::run_gamma_task(cfg,
                                    [](unsigned) {
                                      core::GammaWorkItemConfig w;
                                      w.outputs_per_sector = 32;  // != 64
                                      return w;
                                    }),
               Error);
}

TEST(ApiContracts, FpgaAppValidatesWorkload) {
  core::FpgaWorkload w;
  w.scale_divisor = 0;
  EXPECT_THROW(core::run_fpga_application(
                   rng::config(rng::ConfigId::kConfig1), w),
               Error);
}

TEST(ApiContracts, SchedulerValidates) {
  fpga::DependenceGraph g;
  EXPECT_THROW(g.add_operation("x", 0), Error);
  const auto a = g.add_operation("a", 1);
  EXPECT_THROW(g.add_dependence(a, 99), Error);
  EXPECT_THROW(g.feasible_at(0), Error);
  EXPECT_THROW(fpga::gamma_mainloop_graph(0, true), Error);
}

TEST(ApiContracts, PowerTraceValidates) {
  power::SystemPowerConfig cfg;
  EXPECT_THROW(power::simulate_trace(cfg, {}, 0.0), Error);
  const auto trace = power::simulate_trace(cfg, {}, 10.0);
  EXPECT_THROW(power::integrate_energy(trace, 5.0, 5.0), Error);
  EXPECT_THROW(power::integrate_energy(trace, 0.0, 100.0), Error);
  EXPECT_THROW(power::derive_dynamic_energy(cfg, trace, {}, 100.0), Error);
}

TEST(ApiContracts, MiniclValidates) {
  auto dev = minicl::find_device("FPGA");
  minicl::CommandQueue q(*dev);
  EXPECT_THROW(q.enqueue_read(100, minicl::BufferCombining::kHostLevel, 0),
               Error);
  EXPECT_THROW(minicl::find_device("no such accelerator"), Error);
}

TEST(ApiContracts, FinanceValidates) {
  const auto p = finance::Portfolio::synthetic(5, {{1.0, "s"}}, 1);
  finance::McConfig mc;
  mc.num_scenarios = 1;
  EXPECT_THROW(
      finance::simulate_losses(p, mc, finance::sampler_gamma_source(p, 1)),
      Error);
  EXPECT_THROW(finance::Portfolio::synthetic(0, {{1.0, "s"}}, 1), Error);
}

// --- the Listing 4 DEPENDENCE-false assertion --------------------------------

TEST(DependencePragma, TransferBufferAccessPatternHasNoInterIterationHazard) {
  // #pragma HLS DEPENDENCE variable=transfBuf inter false claims that
  // consecutive TLOOP iterations never touch the same buffer element.
  // Replay the transfer unit's write pattern and check the claimed
  // property: writes to transfBuf[i] are at least LTRANSF·16 (= one
  // full buffer of floats) iterations apart — far beyond any pipeline
  // depth, so the pragma is sound.
  constexpr unsigned kWordsPerBurst = 16;  // LTRANSF
  constexpr std::uint64_t kFloats = 16 * kWordsPerBurst * 8;
  std::vector<std::uint64_t> last_write(kWordsPerBurst, 0);
  unsigned lane = 0;
  unsigned i = 0;
  std::uint64_t min_gap = ~std::uint64_t{0};
  for (std::uint64_t iter = 1; iter <= kFloats; ++iter) {
    // One TLOOP trip = one float read; a write to transfBuf happens
    // when the 512-bit word completes.
    if (++lane == 16) {
      lane = 0;
      if (last_write[i] != 0) {
        min_gap = std::min(min_gap, iter - last_write[i]);
      }
      last_write[i] = iter;
      i = (i >= kWordsPerBurst - 1) ? 0u : i + 1u;
    }
  }
  EXPECT_GE(min_gap, 16u * kWordsPerBurst);  // 256 iterations apart
}

TEST(DependencePragma, StreamDepthNeverExceededUnderBackpressure) {
  // The hls::stream bound (the #pragma HLS STREAM depth) is a hard
  // invariant even under adversarial scheduling.
  hls::stream<int> s(3);
  std::thread consumer([&] {
    for (int i = 0; i < 20000; ++i) (void)s.read();
  });
  for (int i = 0; i < 20000; ++i) s.write(i);
  consumer.join();
  EXPECT_LE(s.peak_depth(), 3u);
}

}  // namespace
}  // namespace dwi
