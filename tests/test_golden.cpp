// Golden-value regression tests: exact outputs of the numerics for
// pinned seeds/inputs. Statistical tests cannot see a one-in-a-million
// perturbation (a changed rounding, a reordered operation); these
// pins can. Update the constants deliberately when the algorithm
// changes, never to silence a failure.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "core/fpga_app.h"
#include "core/gamma_work_item.h"
#include "fpga/kernel_sim.h"
#include "rng/erfinv.h"
#include "rng/icdf_bitwise.h"
#include "rng/mersenne_twister.h"

namespace dwi {
namespace {

TEST(Golden, Mt19937CanonicalOutputs) {
  // Matsumoto's reference values for seed 5489.
  rng::MersenneTwister mt(rng::mt19937_params(), 5489u);
  EXPECT_EQ(mt.next(), 3499211612u);
  EXPECT_EQ(mt.next(), 581869302u);
  EXPECT_EQ(mt.next(), 3890346734u);
}

TEST(Golden, Mt521FirstOutputs) {
  // The proven full-period parameter set, seed 1 (library pin).
  rng::MersenneTwister mt(rng::mt521_params(), 1u);
  const std::uint32_t expected[5] = {0xf5757962u, 0x57b0bbafu, 0x12e40c22u,
                                     0xc87be7c0u, 0x378efa23u};
  for (std::uint32_t e : expected) EXPECT_EQ(mt.next(), e);
}

TEST(Golden, IcdfBitwiseValues) {
  EXPECT_FLOAT_EQ(rng::normal_icdf_bitwise(0x40000000u).value,
                  -0.674481392f);
  EXPECT_FLOAT_EQ(rng::normal_icdf_bitwise(0x80000000u).value,
                  2.48849392e-06f);
  EXPECT_FLOAT_EQ(rng::normal_icdf_bitwise(0xc0000000u).value,
                  0.674490988f);
  EXPECT_FLOAT_EQ(rng::normal_icdf_bitwise(0x00010000u).value,
                  -4.16956377f);
}

TEST(Golden, ErfinvGilesValues) {
  EXPECT_FLOAT_EQ(rng::erfinv_giles(0.5f), 0.476936281f);
  EXPECT_FLOAT_EQ(rng::erfinv_giles(-0.9f), -1.16308701f);
  EXPECT_FLOAT_EQ(rng::erfinv_giles(0.99f), 1.82138658f);
}

TEST(Golden, GammaWorkItemFirstOutputs) {
  // Listing 2 end to end (Config2, seed 7, work-item 0): any change to
  // the twister gating, transform, rejection test or correction moves
  // these values.
  core::GammaWorkItemConfig cfg;
  cfg.app = rng::config(rng::ConfigId::kConfig2);
  cfg.outputs_per_sector = 8;
  cfg.seed = 7;
  core::GammaWorkItem wi(cfg);
  const float expected[4] = {0.858593583f, 2.32772803f, 0.97027576f,
                             0.296070963f};
  float v = 0.0f;
  for (float e : expected) {
    while (!wi.produce(&v)) {
      ASSERT_FALSE(wi.finished());
    }
    EXPECT_FLOAT_EQ(v, e);
  }
}

TEST(Golden, KernelSimTable3Counts) {
  // Table III's four FPGA runs at seed 1 and 1/4096 scale: the modeled
  // counts every KernelSim engine must reproduce exactly.
  struct Counts {
    std::uint64_t cycles, outputs, attempts, stall_cycles, bursts;
  };
  constexpr std::array<Counts, 4> expected = {{
      {31193, 138240, 181397, 1778, 540},
      {31196, 138240, 181326, 1903, 540},
      {31961, 153600, 159097, 88108, 536},
      {31961, 153600, 159007, 88198, 536},
  }};
  core::FpgaWorkload fw;
  fw.scale_divisor = 4096;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto r =
        core::run_fpga_application(rng::all_configs()[i], fw, 1).sim;
    SCOPED_TRACE(rng::all_configs()[i].name);
    EXPECT_EQ(r.cycles, expected[i].cycles);
    EXPECT_EQ(r.outputs, expected[i].outputs);
    EXPECT_EQ(r.attempts, expected[i].attempts);
    EXPECT_EQ(r.compute_stall_cycles, expected[i].stall_cycles);
    EXPECT_EQ(r.bursts, expected[i].bursts);
  }
}

TEST(Golden, Fig2Fig3ScheduleTraceHash) {
  // The schedule bench/fig2_fig3_schedules renders (default seed): an
  // FNV-1a hash over every work-item row and the channel row.
  fpga::ScheduleTrace trace;
  fpga::KernelSimConfig cfg;
  cfg.work_items = 4;
  cfg.outputs_per_work_item = 192;
  cfg.burst_beats = 2;
  cfg.stream_depth = 8;
  cfg.channel.turnaround_cycles = 6;
  cfg.trace = &trace;
  const auto r = fpga::simulate_kernel(cfg, [](unsigned w) {
    return std::make_unique<fpga::BernoulliProducer>(0.766, 33 + w);
  });
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& row) {
    for (const char c : row) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // row separator
    h *= 0x100000001b3ull;
  };
  for (const auto& row : trace.work_items) mix(row);
  mix(trace.channel);
  EXPECT_EQ(trace.channel.size(), r.cycles - cfg.pipeline_latency);
  EXPECT_EQ(h, 0x4362ce86602664a3ull) << std::hex << h;
}

}  // namespace
}  // namespace dwi
