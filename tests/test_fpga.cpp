// Tests for the FPGA substrate: resource model (Table II), memory
// channel (burst/turnaround semantics, Fig 7 mechanism), and the
// cycle-level kernel simulator (II, backpressure, extrapolation,
// Eq (1)).
#include <gtest/gtest.h>

#include <memory>

#include "fpga/device.h"
#include "fpga/kernel_sim.h"
#include "fpga/memory_channel.h"
#include "fpga/resource_model.h"
#include "rng/configs.h"

namespace dwi::fpga {
namespace {

TEST(DeviceSpec, PaperConstants) {
  const auto& d = adm_pcie_7v3();
  EXPECT_EQ(d.slices, 107'400u);
  EXPECT_EQ(d.dsps, 3'600u);
  EXPECT_EQ(d.bram36, 1'470u);
  EXPECT_DOUBLE_EQ(d.clock_hz, 200e6);
  EXPECT_EQ(d.floats_per_beat(), 16u);
  EXPECT_DOUBLE_EQ(d.peak_bandwidth_bytes(), 12.8e9);
}

TEST(ResourceModel, MaxWorkItemsMatchesPaper) {
  // §IV-B: "Achieved: 6 work-items with Config1,2 and 8 work-items
  // with Config3,4."
  const auto& dev = adm_pcie_7v3();
  EXPECT_EQ(max_work_items(dev, rng::config(rng::ConfigId::kConfig1)), 6u);
  EXPECT_EQ(max_work_items(dev, rng::config(rng::ConfigId::kConfig2)), 6u);
  EXPECT_EQ(max_work_items(dev, rng::config(rng::ConfigId::kConfig3)), 8u);
  EXPECT_EQ(max_work_items(dev, rng::config(rng::ConfigId::kConfig4)), 8u);
}

class TableII : public ::testing::TestWithParam<int> {};

TEST_P(TableII, UtilizationNearPaper) {
  // Table II cells, within a 2.5 percentage-point band.
  struct Row {
    double slice, dsp, bram;
  };
  static const Row paper[4] = {
      {53.43, 23.67, 20.31},
      {52.75, 23.67, 20.31},
      {52.92, 21.56, 24.05},
      {52.72, 21.56, 24.05},
  };
  const int i = GetParam();
  const auto& dev = adm_pcie_7v3();
  const auto& cfg = rng::all_configs()[static_cast<std::size_t>(i)];
  const auto u = estimate_utilization(dev, cfg, max_work_items(dev, cfg));
  EXPECT_NEAR(u.slice_util * 100, paper[i].slice, 2.5) << cfg.name;
  EXPECT_NEAR(u.dsp_util * 100, paper[i].dsp, 2.5) << cfg.name;
  EXPECT_NEAR(u.bram_util * 100, paper[i].bram, 2.5) << cfg.name;
  EXPECT_TRUE(u.routable);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, TableII, ::testing::Values(0, 1, 2, 3));

TEST(ResourceModel, SlicesLimitTheDesign) {
  // Table II: "in all cases the design is limited by the number of
  // slices" — at N_max+1 the slice ceiling is the violated constraint.
  const auto& dev = adm_pcie_7v3();
  for (const auto& cfg : rng::all_configs()) {
    const unsigned n = max_work_items(dev, cfg);
    const auto over = estimate_utilization(dev, cfg, n + 1);
    EXPECT_FALSE(over.routable);
    EXPECT_GT(over.slice_util, dev.route_ceiling_slice_util);
    EXPECT_LT(over.dsp_util, 1.0);
    EXPECT_LT(over.bram_util, 1.0);
  }
}

TEST(ResourceModel, BramInsensitiveToMtPeriod) {
  // Table II reports identical BRAM for Config1 vs Config2: the
  // 512-bit datamover FIFOs dominate. Allow a small model split.
  const auto& dev = adm_pcie_7v3();
  const auto c1 = estimate_utilization(dev, rng::config(rng::ConfigId::kConfig1), 6);
  const auto c2 = estimate_utilization(dev, rng::config(rng::ConfigId::kConfig2), 6);
  EXPECT_NEAR(c1.bram_util, c2.bram_util, 0.02);
}

TEST(ResourceModel, AwsF1FitsManyMoreWorkItems) {
  // The §I motivation projected: an F1-class VU9P fits far more
  // decoupled pipelines than the paper's Virtex-7 board.
  const auto& f1 = aws_f1_vu9p();
  const unsigned v7_c1 =
      max_work_items(adm_pcie_7v3(), rng::config(rng::ConfigId::kConfig1));
  const unsigned f1_c1 =
      max_work_items(f1, rng::config(rng::ConfigId::kConfig1));
  EXPECT_GE(f1_c1, 5 * v7_c1);
  EXPECT_GT(f1.peak_bandwidth_bytes(), adm_pcie_7v3().peak_bandwidth_bytes());
}

TEST(ResourceModel, TransformVariantsOrdering) {
  // Per-work-item resource ordering drives the §II-D2/D3 choices:
  // bit-level ICDF fits the most pipelines, Box-Muller the fewest.
  const auto& dev = adm_pcie_7v3();
  const auto& mt = rng::mt19937_params();
  const unsigned icdf = max_work_items_transform(
      dev, rng::NormalTransform::kIcdfBitwise, mt);
  const unsigned mb = max_work_items_transform(
      dev, rng::NormalTransform::kMarsagliaBray, mt);
  const unsigned bm = max_work_items_transform(
      dev, rng::NormalTransform::kBoxMuller, mt);
  EXPECT_GT(icdf, mb);
  EXPECT_GT(mb, bm);
  EXPECT_EQ(icdf, 8u);
  EXPECT_EQ(mb, 6u);
}

TEST(ResourceModel, SlicePackingModel) {
  EXPECT_EQ(slices_from_luts_ffs(3000, 0), 1000u);   // LUT-bound
  EXPECT_EQ(slices_from_luts_ffs(0, 6000), 1000u);   // FF-bound
  EXPECT_EQ(slices_from_luts_ffs(3000, 12000), 2000u);
}

TEST(MemoryChannel, SingleBurstTiming) {
  MemoryChannelConfig cfg;
  cfg.turnaround_cycles = 10;
  BurstTimeline ch(cfg);
  // Dequeued at the next tick, done after turnaround + beats ticks.
  const BurstTimeline::Slot slot = ch.request(0, 4);
  EXPECT_EQ(slot.start, 1u);
  EXPECT_EQ(slot.finish, 14u);
  EXPECT_EQ(ch.bursts_served(), 1u);
  EXPECT_EQ(ch.beats_transferred(), 4u);
}

TEST(MemoryChannel, SerializesRequesters) {
  MemoryChannelConfig cfg;
  cfg.turnaround_cycles = 2;
  BurstTimeline ch(cfg);
  const BurstTimeline::Slot first = ch.request(0, 3);
  const BurstTimeline::Slot second = ch.request(0, 3);
  EXPECT_EQ(first.finish, 5u);
  EXPECT_EQ(second.start, first.finish + 1);  // waits for the first
  EXPECT_EQ(second.finish - first.finish, 5u);
  EXPECT_EQ(ch.bursts_served(), 2u);
  // An idle channel takes a late request at the next tick.
  EXPECT_EQ(ch.request(100, 1).start, 101u);
}

TEST(MemoryChannel, EffectiveBandwidthFormula) {
  // Saturated channel: bytes/cycle = 64·B/(B + turnaround).
  MemoryChannelConfig cfg;
  cfg.turnaround_cycles = 41;
  BurstTimeline ch(cfg);
  const unsigned beats = 16;
  std::uint64_t cycle = 0;
  for (int burst = 0; burst < 200; ++burst) {
    cycle = ch.request(cycle, beats).finish;
  }
  const double bytes_per_cycle =
      static_cast<double>(ch.beats_transferred()) * 64.0 /
      static_cast<double>(cycle);
  EXPECT_DOUBLE_EQ(bytes_per_cycle, 64.0 * beats / (beats + 41.0));
}

TEST(KernelSim, DummyProducerTransfersEverything) {
  KernelSimConfig cfg;
  cfg.work_items = 2;
  cfg.outputs_per_work_item = 4096;
  const auto r = simulate_kernel(cfg, [](unsigned) {
    return std::make_unique<DummyProducer>();
  });
  EXPECT_EQ(r.outputs, 8192u);
  EXPECT_EQ(r.attempts, 8192u);  // dummy never rejects
  EXPECT_DOUBLE_EQ(r.rejection_rate(), 0.0);
  EXPECT_GT(r.cycles, 4096u);
}

TEST(KernelSim, RejectionRateMatchesBernoulli) {
  KernelSimConfig cfg;
  cfg.work_items = 4;
  cfg.outputs_per_work_item = 20000;
  const auto r = simulate_kernel(cfg, [](unsigned w) {
    return std::make_unique<BernoulliProducer>(0.7, 99 + w);
  });
  EXPECT_NEAR(r.rejection_rate(), 0.3, 0.02);
}

TEST(KernelSim, InitiationIntervalScalesComputeTime) {
  // With a compute-bound setup (tiny rejection, plenty of bandwidth),
  // II=2 takes ~2x the cycles of II=1.
  KernelSimConfig cfg;
  cfg.work_items = 1;
  cfg.outputs_per_work_item = 50000;
  cfg.burst_beats = 64;
  auto run = [&](unsigned ii) {
    cfg.initiation_interval = ii;
    return simulate_kernel(cfg, [](unsigned) {
      return std::make_unique<BernoulliProducer>(0.8, 7);
    });
  };
  const auto r1 = run(1);
  const auto r2 = run(2);
  EXPECT_NEAR(static_cast<double>(r2.cycles) / static_cast<double>(r1.cycles),
              2.0, 0.1);
}

TEST(KernelSim, MemoryBoundWhenManyWorkItems) {
  // 8 always-valid work-items demand 8 floats/cycle = 32 B/cycle, far
  // above the channel's ~19 B/cycle: compute must stall and the
  // channel saturates near its effective bandwidth.
  KernelSimConfig cfg;
  cfg.work_items = 8;
  cfg.outputs_per_work_item = 50000;
  cfg.burst_beats = 18;
  const auto r = simulate_kernel(cfg, [](unsigned) {
    return std::make_unique<DummyProducer>();
  });
  EXPECT_GT(r.compute_stall_cycles, 0u);
  const double expected_bpc = 64.0 * 18 / (18 + 41.0);
  EXPECT_NEAR(r.channel_bytes_per_cycle, expected_bpc, 1.0);
}

TEST(KernelSim, ComputeBoundWhenRejectionHigh) {
  // 2 work-items at 50 % acceptance demand ~1 float/cycle = 4 B/cycle,
  // well under the channel: no sustained stalls, runtime tracks the
  // attempt count.
  KernelSimConfig cfg;
  cfg.work_items = 2;
  cfg.outputs_per_work_item = 40000;
  const auto r = simulate_kernel(cfg, [](unsigned w) {
    return std::make_unique<BernoulliProducer>(0.5, 3 + w);
  });
  EXPECT_LT(static_cast<double>(r.compute_stall_cycles) /
                static_cast<double>(r.cycles),
            0.02);
  // cycles ≈ attempts per work-item (II = 1).
  EXPECT_NEAR(static_cast<double>(r.cycles),
              static_cast<double>(r.attempts) / 2.0,
              static_cast<double>(r.cycles) * 0.1);
}

TEST(KernelSim, LargerBurstsRaiseBandwidth) {
  // Fig 7's mechanism: with the channel saturated, bigger bursts
  // amortize the turnaround and cut the runtime.
  KernelSimConfig cfg;
  cfg.work_items = 6;
  cfg.outputs_per_work_item = 50000;
  auto cycles_at = [&](unsigned beats) {
    cfg.burst_beats = beats;
    return simulate_kernel(cfg, [](unsigned) {
             return std::make_unique<DummyProducer>();
           }).cycles;
  };
  const auto c1 = cycles_at(1);
  const auto c16 = cycles_at(16);
  const auto c64 = cycles_at(64);
  EXPECT_GT(c1, c16);
  EXPECT_GT(c16, c64);
}

TEST(KernelSim, RecordsOutputsWhenAsked) {
  KernelSimConfig cfg;
  cfg.work_items = 1;
  cfg.outputs_per_work_item = 256;
  cfg.record_outputs = true;
  const auto r = simulate_kernel(cfg, [](unsigned) {
    return std::make_unique<DummyProducer>();
  });
  ASSERT_EQ(r.outputs_data.size(), 256u);
  EXPECT_FLOAT_EQ(r.outputs_data[0], 0.0f);
  EXPECT_FLOAT_EQ(r.outputs_data[255], 255.0f);
}

TEST(KernelSim, ExtrapolationIsLinear) {
  KernelSimConfig cfg;
  cfg.work_items = 2;
  cfg.outputs_per_work_item = 30000;
  const auto r = simulate_kernel(cfg, [](unsigned) {
    return std::make_unique<DummyProducer>();
  });
  const double t_full = extrapolate_seconds(r, 600000, 200e6);
  const double t_sim = r.seconds_at(200e6);
  EXPECT_NEAR(t_full / t_sim, 10.0, 0.01);
}

TEST(KernelSim, Eq1MatchesPaperExample) {
  // §IV-E: t ≈ 683 ms for Config1/2 (6 WI, r = 0.303) and ≈ 422 ms for
  // Config3/4 (8 WI, r = 0.074) at 200 MHz.
  const std::uint64_t outputs = 2'621'440ull * 240ull;
  EXPECT_NEAR(eq1_theoretical_seconds(outputs, 6, 200e6, 0.303), 0.683,
              0.002);
  EXPECT_NEAR(eq1_theoretical_seconds(outputs, 8, 200e6, 0.074), 0.422,
              0.002);
}

TEST(KernelSim, ValidatesConfig) {
  KernelSimConfig cfg;
  cfg.work_items = 0;
  EXPECT_THROW(simulate_kernel(cfg,
                               [](unsigned) {
                                 return std::make_unique<DummyProducer>();
                               }),
               dwi::Error);
}

/// Returns whatever accept word it was built with, `ran` initiations
/// at a time, regardless of `want`: a producer that breaks the
/// produce_word() contract.
class FixedWordProducer final : public ProducerModel {
 public:
  FixedWordProducer(std::uint64_t word, unsigned ran)
      : word_(word), ran_(ran) {}
  bool produce(float* value) override {
    *value = 0.0f;
    return true;
  }
  std::uint64_t produce_word(std::uint64_t, float*, unsigned& ran) override {
    ran = ran_;
    return word_;
  }

 private:
  std::uint64_t word_;
  unsigned ran_;
};

TEST(KernelSim, MalformedAcceptWordThrows) {
  // select() counts 64 initiations per word; a word that is short
  // before the quota, or otherwise inconsistent, must fail loudly
  // instead of silently shifting every later accept.
  const struct {
    const char* what;
    std::uint64_t word;
    unsigned ran;
  } cases[] = {
      {"short word before the quota", 0xffff, 16},
      {"empty short word", 0, 0},
      {"bits past ran", ~std::uint64_t{0}, 32},
      {"ran past 64", 0, 65},
      {"more accepts than wanted", ~std::uint64_t{0}, 64},
  };
  for (const auto& c : cases) {
    KernelSimConfig cfg;
    cfg.work_items = 2;
    cfg.outputs_per_work_item = 40;
    EXPECT_THROW(simulate_kernel(cfg,
                                 [&](unsigned) {
                                   return std::make_unique<FixedWordProducer>(
                                       c.word, c.ran);
                                 }),
                 dwi::Error)
        << c.what;
  }
  // A word that meets the quota must end on that accept.
  KernelSimConfig cfg;
  cfg.work_items = 1;
  cfg.outputs_per_work_item = 2;
  EXPECT_THROW(simulate_kernel(cfg,
                               [](unsigned) {
                                 return std::make_unique<FixedWordProducer>(
                                     0b11, 3);
                               }),
               dwi::Error);
  EXPECT_NO_THROW(simulate_kernel(cfg, [](unsigned) {
    return std::make_unique<FixedWordProducer>(0b101, 3);
  }));
}

}  // namespace
}  // namespace dwi::fpga
