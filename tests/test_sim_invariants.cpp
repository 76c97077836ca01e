// Cross-cutting invariants of the timing engines: conservation laws in
// the FPGA kernel simulator (every produced float is transferred,
// channel accounting balances), multi-channel scaling, trace
// consistency, and monotonicity properties the models must obey.
#include <gtest/gtest.h>

#include <memory>

#include "fpga/kernel_sim.h"
#include "rng/configs.h"
#include "simt/runtime_estimator.h"

namespace dwi {
namespace {

using fpga::BernoulliProducer;
using fpga::DummyProducer;
using fpga::KernelSimConfig;
using fpga::simulate_kernel;

TEST(KernelSimInvariant, EveryFloatIsTransferred) {
  // outputs · 1 float = beats · 16 floats (tail bursts pad, so beats
  // may round up by at most one per work-item).
  KernelSimConfig cfg;
  cfg.work_items = 5;
  cfg.outputs_per_work_item = 7'003;  // deliberately unaligned
  const auto r = simulate_kernel(cfg, [](unsigned w) {
    return std::make_unique<BernoulliProducer>(0.6, 3 + w);
  });
  EXPECT_EQ(r.outputs, 5u * 7'003u);
  std::uint64_t beats = 0;
  // beats = channel bytes / 64; recover from bandwidth accounting:
  beats = static_cast<std::uint64_t>(
      r.channel_bytes_per_cycle * static_cast<double>(r.cycles -
                                                      90) /  // latency pad
      64.0 + 0.5);
  const std::uint64_t min_beats = (r.outputs + 15) / 16;
  EXPECT_GE(beats + 5, min_beats);              // every float shipped
  EXPECT_LE(beats, min_beats + cfg.work_items); // at most 1 pad beat/WI
}

TEST(KernelSimInvariant, CyclesLowerBoundedByWork) {
  // cycles >= attempts / work_items (II = 1) and >= beats × beat time
  // on the saturated channel.
  KernelSimConfig cfg;
  cfg.work_items = 3;
  cfg.outputs_per_work_item = 20'000;
  const auto r = simulate_kernel(cfg, [](unsigned w) {
    return std::make_unique<BernoulliProducer>(0.75, 11 + w);
  });
  EXPECT_GE(r.cycles,
            r.attempts / cfg.work_items);
}

TEST(KernelSimInvariant, DeterministicGivenSeeds) {
  KernelSimConfig cfg;
  cfg.work_items = 4;
  cfg.outputs_per_work_item = 10'000;
  auto run = [&] {
    return simulate_kernel(cfg, [](unsigned w) {
      return std::make_unique<BernoulliProducer>(0.7, 101 + w);
    });
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.bursts, b.bursts);
}

TEST(KernelSimInvariant, MoreWorkItemsNeverSlower) {
  // Fixed total work split over more pipelines can only help (or tie
  // at the memory bound).
  std::uint64_t prev_cycles = ~std::uint64_t{0};
  for (unsigned n : {1u, 2u, 4u, 8u}) {
    KernelSimConfig cfg;
    cfg.work_items = n;
    cfg.outputs_per_work_item = 96'000 / n;
    const auto r = simulate_kernel(cfg, [](unsigned w) {
      return std::make_unique<BernoulliProducer>(0.766, 7 + w);
    });
    EXPECT_LE(r.cycles, prev_cycles + prev_cycles / 50) << n;
    prev_cycles = r.cycles;
  }
}

TEST(KernelSimInvariant, SecondChannelRelievesTheBottleneck) {
  KernelSimConfig cfg;
  cfg.work_items = 8;
  cfg.burst_beats = 18;
  cfg.outputs_per_work_item = 40'000;
  auto cycles_with = [&](unsigned channels) {
    cfg.memory_channels = channels;
    return simulate_kernel(cfg, [](unsigned) {
             return std::make_unique<DummyProducer>();
           }).cycles;
  };
  const auto one = cycles_with(1);
  const auto two = cycles_with(2);
  // One channel is memory-bound (~19 B/cycle for 8 WIs wanting 32);
  // two channels make the run compute-bound at ~1 float/cycle/WI.
  EXPECT_LT(static_cast<double>(two), 0.65 * static_cast<double>(one));
  // With ample channels the kernel is compute-bound: 1 float/cycle/WI.
  const auto four = cycles_with(4);
  EXPECT_NEAR(static_cast<double>(four),
              40'000.0 * 16 / 16 + 90.0 + 720.0, 900.0);
}

TEST(KernelSimInvariant, DependencePragmaBuysThroughput) {
  // Listing 4's DEPENDENCE-false double buffering: at the Config1
  // operating point with a shallow stream, removing it costs real
  // runtime (collection freezes during each burst service).
  KernelSimConfig cfg;
  cfg.work_items = 6;
  cfg.burst_beats = 16;
  cfg.stream_depth = 2;
  cfg.outputs_per_work_item = 50'000;
  auto run = [&](bool double_buffered) {
    cfg.transfer_double_buffered = double_buffered;
    return simulate_kernel(cfg, [](unsigned w) {
      return std::make_unique<BernoulliProducer>(0.766, 13 + w);
    });
  };
  const auto with_pragma = run(true);
  const auto without = run(false);
  EXPECT_GT(static_cast<double>(without.cycles),
            1.08 * static_cast<double>(with_pragma.cycles));
  EXPECT_GT(without.compute_stall_cycles,
            3 * with_pragma.compute_stall_cycles);
}

TEST(KernelSimInvariant, TraceShapesConsistent) {
  fpga::ScheduleTrace trace;
  KernelSimConfig cfg;
  cfg.work_items = 3;
  cfg.outputs_per_work_item = 2'000;
  cfg.trace = &trace;
  const auto r = simulate_kernel(cfg, [](unsigned) {
    return std::make_unique<DummyProducer>();
  });
  const std::uint64_t sim_cycles = r.cycles - cfg.pipeline_latency;
  ASSERT_EQ(trace.work_items.size(), 3u);
  for (const auto& row : trace.work_items) {
    EXPECT_EQ(row.size(), sim_cycles);
  }
  EXPECT_EQ(trace.channel.size(), sim_cycles);
  // A dummy producer at II=1 computes every cycle until done.
  EXPECT_EQ(trace.work_items[0].find('-'), std::string::npos);
  EXPECT_NE(trace.channel.find('0'), std::string::npos);
}

TEST(KernelSimInvariant, TraceShowsIiWaitStates) {
  // At II = 2 (the naive-counter ablation) every other cycle is an
  // initiation-interval wait, visible as '-' in the Fig 3 trace.
  fpga::ScheduleTrace trace;
  KernelSimConfig cfg;
  cfg.work_items = 1;
  cfg.initiation_interval = 2;
  cfg.outputs_per_work_item = 512;
  cfg.trace = &trace;
  (void)simulate_kernel(cfg, [](unsigned) {
    return std::make_unique<DummyProducer>();
  });
  const auto& row = trace.work_items[0];
  const auto waits = static_cast<double>(
      std::count(row.begin(), row.end(), '-'));
  const auto computes = static_cast<double>(
      std::count(row.begin(), row.end(), 'C'));
  EXPECT_NEAR(waits / computes, 1.0, 0.1);
}

TEST(SimtInvariant, EfficiencyBounds) {
  // SIMD efficiency is a fraction in (0, 1]; issued >= useful/width.
  simt::NdRangeWorkload w;
  w.total_outputs = 1ull << 22;
  for (const auto* p : {&simt::cpu_haswell(), &simt::gpu_tesla_k80(),
                        &simt::phi_7120p()}) {
    for (const auto& cfg : rng::all_configs()) {
      const auto e = simt::estimate_runtime(*p, cfg,
                                            cfg.fixed_arch_transform, w);
      EXPECT_GT(e.simd_efficiency, 0.0) << p->name << " " << cfg.name;
      EXPECT_LE(e.simd_efficiency, 1.0 + 1e-12);
      EXPECT_GT(e.seconds, 0.0);
    }
  }
}

TEST(SimtInvariant, RuntimeScalesLinearlyAtFixedQuota) {
  // Scaling outputs AND global size together (fixed per-work-item
  // quota) must scale runtime linearly: seeding and utilization
  // factors are unchanged.
  simt::NdRangeWorkload small;
  small.total_outputs = 1ull << 24;
  small.global_size = 65'536;
  simt::NdRangeWorkload large;
  large.total_outputs = 1ull << 26;
  large.global_size = 262'144;
  const auto& cfg = rng::config(rng::ConfigId::kConfig2);
  const auto a = simt::estimate_runtime(simt::phi_7120p(), cfg,
                                        rng::NormalTransform::kMarsagliaBray,
                                        small);
  const auto b = simt::estimate_runtime(simt::phi_7120p(), cfg,
                                        rng::NormalTransform::kMarsagliaBray,
                                        large);
  EXPECT_NEAR(b.seconds / a.seconds, 4.0, 0.25);
}

TEST(SimtInvariant, SeedingOverheadShrinksWithQuota) {
  // At fixed global size, quadrupling the outputs less-than-quadruples
  // the runtime: the per-work-item PRNG seeding amortizes — the Fig 5b
  // right-edge mechanism, visible as sublinear scaling here.
  simt::NdRangeWorkload small;
  small.total_outputs = 1ull << 22;
  simt::NdRangeWorkload large;
  large.total_outputs = 1ull << 24;
  const auto& cfg = rng::config(rng::ConfigId::kConfig1);  // big MT state
  const auto a = simt::estimate_runtime(simt::cpu_haswell(), cfg,
                                        rng::NormalTransform::kMarsagliaBray,
                                        small);
  const auto b = simt::estimate_runtime(simt::cpu_haswell(), cfg,
                                        rng::NormalTransform::kMarsagliaBray,
                                        large);
  EXPECT_LT(b.seconds / a.seconds, 4.0);
  EXPECT_GT(b.seconds / a.seconds, 2.0);
}

TEST(SimtInvariant, MoreRejectionMeansMoreSlotsPerOutput) {
  simt::NdRangeWorkload w;
  w.total_outputs = 1ull << 22;
  const auto mb = simt::estimate_runtime(
      simt::gpu_tesla_k80(), rng::config(rng::ConfigId::kConfig2),
      rng::NormalTransform::kMarsagliaBray, w);
  const auto icdf = simt::estimate_runtime(
      simt::gpu_tesla_k80(), rng::config(rng::ConfigId::kConfig4),
      rng::NormalTransform::kIcdfCuda, w);
  EXPECT_GT(mb.rejection_rate, icdf.rejection_rate);
  EXPECT_GT(mb.slots_per_output, icdf.slots_per_output);
}

}  // namespace
}  // namespace dwi
