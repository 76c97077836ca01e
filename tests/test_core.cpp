// Tests for the paper's core contribution (src/core): the delayed
// counter workaround (Listing 2), the pipelined gamma work-item, the
// transfer unit packing (Listing 4), the decoupled-work-items Task
// (Listing 1), buffer combining (§III-E), and the end-to-end FPGA
// application runs.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <span>
#include <thread>

#include "core/decoupled_work_items.h"
#include "core/delayed_counter.h"
#include "core/fpga_app.h"
#include "core/gamma_work_item.h"
#include "core/transfer_unit.h"
#include "exec/thread_pool.h"
#include "stats/distributions.h"
#include "stats/ks_test.h"
#include "stats/moments.h"

namespace dwi::core {
namespace {

TEST(DelayedCounter, DelaysByBreakIdPlusOne) {
  DelayedCounter c(0);  // delay of one iteration (the paper's choice)
  // Iteration 1: shift (prev[0] <- 0), then increment.
  c.update_registers();
  EXPECT_EQ(c.delayed_value(), 0u);
  c.increment();
  EXPECT_EQ(c.value(), 1u);
  // Iteration 2: the delayed view now shows iteration 1's final value.
  c.update_registers();
  EXPECT_EQ(c.delayed_value(), 1u);
}

TEST(DelayedCounter, LargerBreakIdDelaysMore) {
  DelayedCounter c(2);  // delay of three iterations
  for (int it = 0; it < 5; ++it) {
    c.update_registers();
    const std::uint32_t expect = it < 3 ? 0u : static_cast<std::uint32_t>(it - 3 + 1);
    EXPECT_EQ(c.delayed_value(), expect) << "iteration " << it;
    c.increment();
  }
}

TEST(DelayedCounter, LoopRunsExactlyOneExtraIteration) {
  // Simulate MAINLOOP with limitMain = 5 and an always-valid output:
  // the delayed exit adds exactly breakId+1 = 1 harmless iteration,
  // and the guarded write keeps outputs at 5.
  DelayedCounter c(0);
  const std::uint32_t limit = 5;
  unsigned iterations = 0;
  unsigned outputs = 0;
  while (c.delayed_value() < limit) {
    ++iterations;
    c.update_registers();
    if (c.delayed_value() >= limit) break;
    if (c.value() < limit) {  // guarded write
      ++outputs;
      c.increment();
    }
  }
  EXPECT_EQ(outputs, limit);
  EXPECT_EQ(iterations, limit + 1);
}

TEST(DelayedCounter, ResetClearsRegisters) {
  DelayedCounter c(1);
  c.update_registers();
  c.increment();
  c.update_registers();
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(c.delayed_value(), 0u);
}

TEST(DelayedCounter, AchievedIiModel) {
  // RecMII = ceil(latency / (1 + delay)): each delay register widens
  // the recurrence distance, down to the II = 1 floor.
  EXPECT_EQ(achieved_initiation_interval(3, 0), 3u);
  EXPECT_EQ(achieved_initiation_interval(3, 1), 2u);
  EXPECT_EQ(achieved_initiation_interval(3, 2), 1u);
  EXPECT_EQ(achieved_initiation_interval(3, 5), 1u);
  EXPECT_EQ(achieved_initiation_interval(1, 0), 1u);
  // The paper's counter chain: latency 2, naive II = 2, and breakId=0
  // ("a delay of one cycle") already recovers II = 1.
  EXPECT_EQ(achieved_initiation_interval(2, 0), 2u);
  EXPECT_EQ(achieved_initiation_interval(2, 1), 1u);
}

TEST(GammaWorkItem, ProducesExactQuota) {
  GammaWorkItemConfig cfg;
  cfg.app = rng::config(rng::ConfigId::kConfig2);
  cfg.sector_variances = {1.39f, 0.5f, 2.0f};
  cfg.outputs_per_sector = 500;
  GammaWorkItem wi(cfg);
  EXPECT_EQ(wi.total_quota(), 1500u);
  std::uint64_t produced = 0;
  float v = 0.0f;
  while (!wi.finished()) {
    if (wi.produce(&v)) ++produced;
  }
  EXPECT_EQ(produced, 1500u);
  EXPECT_EQ(wi.outputs(), 1500u);
  EXPECT_GT(wi.iterations(), produced);  // rejections happened
}

TEST(GammaWorkItem, DistributionMatchesGamma) {
  GammaWorkItemConfig cfg;
  cfg.app = rng::config(rng::ConfigId::kConfig1);
  cfg.sector_variances = {1.39f};
  cfg.outputs_per_sector = 60000;
  GammaWorkItem wi(cfg);
  std::vector<double> xs;
  xs.reserve(cfg.outputs_per_sector);
  float v = 0.0f;
  while (!wi.finished()) {
    if (wi.produce(&v)) xs.push_back(static_cast<double>(v));
  }
  const auto g = stats::GammaParams::from_sector_variance(1.39);
  const auto ks = stats::ks_test(std::span<const double>(xs),
                                 [&](double x) {
                                   return stats::gamma_cdf(x, g.shape, g.scale);
                                 });
  EXPECT_GT(ks.p_value, 1e-4) << "KS D=" << ks.statistic;
}

TEST(GammaWorkItem, IcdfConfigDistributionAlsoCorrect) {
  // Config3 exercises the bit-level ICDF on the FPGA path.
  GammaWorkItemConfig cfg;
  cfg.app = rng::config(rng::ConfigId::kConfig3);
  cfg.sector_variances = {1.39f};
  cfg.outputs_per_sector = 60000;
  GammaWorkItem wi(cfg);
  stats::RunningMoments m;
  float v = 0.0f;
  while (!wi.finished()) {
    if (wi.produce(&v)) m.add(static_cast<double>(v));
  }
  EXPECT_NEAR(m.mean(), 1.0, 0.03);
  EXPECT_NEAR(m.variance(), 1.39, 0.12);
}

TEST(GammaWorkItem, RejectionRatesPerTransform) {
  auto rate = [](rng::ConfigId id) {
    GammaWorkItemConfig cfg;
    cfg.app = rng::config(id);
    cfg.sector_variances = {1.39f};
    cfg.outputs_per_sector = 40000;
    GammaWorkItem wi(cfg);
    float v = 0.0f;
    while (!wi.finished()) (void)wi.produce(&v);
    return wi.rejection_rate();
  };
  const double mb = rate(rng::ConfigId::kConfig1);
  const double icdf = rate(rng::ConfigId::kConfig3);
  // §IV-E shape: MB-combined ≫ ICDF-combined.
  EXPECT_GT(mb, 0.18);
  EXPECT_LT(mb, 0.32);
  EXPECT_LT(icdf, 0.08);
}

TEST(GammaWorkItem, PerSectorVariancesRespected) {
  GammaWorkItemConfig cfg;
  cfg.app = rng::config(rng::ConfigId::kConfig2);
  cfg.sector_variances = {0.3f, 3.0f};
  cfg.outputs_per_sector = 40000;
  GammaWorkItem wi(cfg);
  stats::RunningMoments first;
  stats::RunningMoments second;
  float v = 0.0f;
  std::uint64_t produced = 0;
  while (!wi.finished()) {
    if (wi.produce(&v)) {
      (produced < cfg.outputs_per_sector ? first : second)
          .add(static_cast<double>(v));
      ++produced;
    }
  }
  EXPECT_NEAR(first.variance(), 0.3, 0.05);
  EXPECT_NEAR(second.variance(), 3.0, 0.35);
  EXPECT_NEAR(first.mean(), 1.0, 0.03);
  EXPECT_NEAR(second.mean(), 1.0, 0.05);
}

TEST(GammaWorkItem, DistinctWorkItemsDecorrelated) {
  auto sample = [](unsigned wid) {
    GammaWorkItemConfig cfg;
    cfg.app = rng::config(rng::ConfigId::kConfig2);
    cfg.outputs_per_sector = 64;
    cfg.work_item_id = wid;
    GammaWorkItem wi(cfg);
    std::vector<float> out;
    float v = 0.0f;
    while (!wi.finished()) {
      if (wi.produce(&v)) out.push_back(v);
    }
    return out;
  };
  const auto a = sample(0);
  const auto b = sample(1);
  ASSERT_EQ(a.size(), b.size());
  int equal = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(GammaWorkItem, LimitMaxCapsRunawaySectors) {
  // Listing 2's limitMax is the safety bound on MAINLOOP: when it is
  // set too low for the stochastic process, the sector ends short and
  // the work-item reports fewer outputs than its quota instead of
  // spinning forever.
  GammaWorkItemConfig cfg;
  cfg.app = rng::config(rng::ConfigId::kConfig1);  // ~23 % rejection
  cfg.sector_variances = {1.39f};
  cfg.outputs_per_sector = 10'000;
  cfg.limit_max = 2'000;  // far below quota / (1 - r)
  GammaWorkItem wi(cfg);
  float v = 0.0f;
  std::uint64_t produced = 0;
  while (!wi.finished()) {
    if (wi.produce(&v)) ++produced;
  }
  EXPECT_LT(produced, 10'000u);
  EXPECT_LE(wi.iterations(), 2'000u);
}

TEST(GammaWorkItem, RunGammaTaskRejectsExhaustedWorkItem) {
  // The Task requires the full quota (the Transfer unit's slice length
  // is fixed); an exhausted work-item must surface as an error, not a
  // hang or a short buffer.
  DecoupledConfig cfg;
  cfg.work_items = 1;
  cfg.floats_per_work_item = 4096;
  EXPECT_THROW(run_gamma_task(cfg,
                              [](unsigned) {
                                GammaWorkItemConfig w;
                                w.app = rng::config(rng::ConfigId::kConfig1);
                                w.outputs_per_sector = 4096;
                                w.limit_max = 512;  // cannot reach quota
                                return w;
                              }),
               dwi::Error);
}

TEST(TransferUnit, PackUnpackRoundTrip) {
  MemoryWord word;
  unsigned lane = 0;
  for (int i = 0; i < 15; ++i) {
    EXPECT_FALSE(pack_g512(&word, static_cast<float>(i) * 0.5f, &lane));
  }
  EXPECT_TRUE(pack_g512(&word, 7.5f, &lane));  // 16th completes the word
  EXPECT_EQ(lane, 0u);
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(unpack_g512(word, i), static_cast<float>(i) * 0.5f);
  }
}

TEST(TransferUnit, DrainsStreamIntoDeviceBuffer) {
  // A work-item's whole value sequence, written one float at a time,
  // lands in the device buffer in order: value i in lane i % 16 of
  // word i / 16.
  constexpr std::uint64_t kFloats = 512;
  std::vector<MemoryWord> device(kFloats / 16);
  TransferUnit out(std::span<MemoryWord>(device), 0, kFloats);
  for (std::uint64_t i = 0; i < kFloats; ++i) {
    out.write(static_cast<float>(i));
  }
  EXPECT_EQ(out.floats_written(), kFloats);
  for (std::uint64_t i = 0; i < kFloats; ++i) {
    EXPECT_FLOAT_EQ(unpack_g512(device[i / 16], i % 16),
                    static_cast<float>(i));
  }
}

TEST(TransferUnit, HonorsWorkItemOffset) {
  // The second of two 4-word slices: every value lands in its own lane
  // of its own word, and the first slice stays untouched.
  std::vector<MemoryWord> device(8);
  TransferUnit out(std::span<MemoryWord>(device), 4, 64);
  for (int i = 0; i < 64; ++i) out.write(static_cast<float>(i) * 0.5f);
  EXPECT_EQ(out.floats_written(), 64u);
  for (unsigned w = 0; w < 4; ++w) EXPECT_TRUE(device[w].is_zero());
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_FLOAT_EQ(unpack_g512(device[4 + i / 16], i % 16),
                    static_cast<float>(i) * 0.5f);
  }
}

TEST(TransferUnit, RejectsOverfill) {
  std::vector<MemoryWord> device(4);
  TransferUnit out(std::span<MemoryWord>(device), 2, 32);
  for (int i = 0; i < 32; ++i) out.write(1.0f);
  EXPECT_THROW(out.write(2.0f), dwi::Error);
  EXPECT_EQ(out.floats_written(), 32u);
  // A slice that would end past the buffer is rejected up front.
  EXPECT_THROW(TransferUnit(std::span<MemoryWord>(device), 3, 32),
               dwi::Error);
}

TEST(TransferUnit, RejectsMisalignedLength) {
  std::vector<MemoryWord> device(4);
  EXPECT_THROW(TransferUnit(std::span<MemoryWord>(device), 0, 17),
               dwi::Error);  // not a multiple of 16
}

TEST(DecoupledWorkItems, EndToEndDataIntegrity) {
  // Each work-item writes a distinctive ramp; the device buffer must
  // contain every value in the right slice.
  DecoupledConfig cfg;
  cfg.work_items = 4;
  cfg.floats_per_work_item = 2048;
  const auto result = run_decoupled_work_items(
      cfg, [](unsigned wid, TransferUnit& out, std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
          out.write(static_cast<float>(wid) * 1e6f + static_cast<float>(i));
        }
      });
  EXPECT_EQ(result.total_floats, 4u * 2048u);
  for (unsigned wid = 0; wid < 4; ++wid) {
    const auto slice = result.work_item_slice(wid, 2048);
    ASSERT_EQ(slice.size(), 2048u);
    for (std::size_t i = 0; i < slice.size(); ++i) {
      ASSERT_FLOAT_EQ(slice[i], static_cast<float>(wid) * 1e6f +
                                    static_cast<float>(i));
    }
  }
}

TEST(DecoupledWorkItems, ComputeRunsOnAtMostPoolPlusOneThreads) {
  // Work-items run as exec-pool tasks, not one OS thread per process:
  // 64 work-items see at most the pool's workers plus the caller.
  DecoupledConfig cfg;
  cfg.work_items = 64;
  cfg.floats_per_work_item = 16;
  std::mutex mutex;
  std::set<std::thread::id> ids;
  run_decoupled_work_items(
      cfg, [&](unsigned, TransferUnit& out, std::uint64_t n) {
        {
          std::lock_guard lock(mutex);
          ids.insert(std::this_thread::get_id());
        }
        for (std::uint64_t i = 0; i < n; ++i) out.write(1.0f);
      });
  EXPECT_LE(ids.size(), exec::global_pool().workers() + 1u);
}

TEST(DecoupledWorkItems, GammaTaskProducesGammaDistribution) {
  DecoupledConfig cfg;
  cfg.work_items = 6;  // the paper's Config1/2 layout
  cfg.floats_per_work_item = 4096;
  const auto result = run_gamma_task(cfg, [](unsigned wid) {
    GammaWorkItemConfig w;
    w.app = rng::config(rng::ConfigId::kConfig2);
    w.sector_variances = {1.39f};
    w.outputs_per_sector = 4096;
    w.work_item_id = wid;
    return w;
  });
  const auto values = result.to_floats();
  ASSERT_EQ(values.size(), 6u * 4096u);
  stats::RunningMoments m;
  for (float v : values) m.add(static_cast<double>(v));
  EXPECT_NEAR(m.mean(), 1.0, 0.03);
  EXPECT_NEAR(m.variance(), 1.39, 0.12);
}

TEST(DecoupledWorkItems, HostLevelCombiningEquivalent) {
  // §III-E: both combining strategies must yield the same host buffer.
  const std::uint64_t floats_per_wi = 256;
  std::vector<std::vector<MemoryWord>> per_wi(3);
  std::vector<float> expected;
  for (unsigned wid = 0; wid < 3; ++wid) {
    per_wi[wid].resize(floats_per_wi / 16);
    unsigned lane = 0;
    std::uint64_t word = 0;
    MemoryWord acc;
    for (std::uint64_t i = 0; i < floats_per_wi; ++i) {
      const float v = static_cast<float>(wid * 1000 + i);
      expected.push_back(v);
      if (pack_g512(&acc, v, &lane)) {
        per_wi[wid][word++] = acc;
      }
    }
  }
  const auto host = combine_buffers_at_host(per_wi, floats_per_wi);
  ASSERT_EQ(host.size(), expected.size());
  for (std::size_t i = 0; i < host.size(); ++i) {
    ASSERT_FLOAT_EQ(host[i], expected[i]);
  }
}

TEST(FpgaApp, ConfigParametersMatchPaper) {
  EXPECT_EQ(config_initiation_interval(true), 1u);
  EXPECT_GT(config_initiation_interval(false), 1u);
  EXPECT_EQ(config_burst_beats(rng::config(rng::ConfigId::kConfig1)), 16u);
  EXPECT_EQ(config_burst_beats(rng::config(rng::ConfigId::kConfig3)), 18u);
}

TEST(FpgaApp, TableIiiFpgaColumn) {
  // FPGA runtimes within 5 % of Table III: 701 ms (Config1/2),
  // 642 ms (Config3/4). Simulated at 1/2048 scale for test speed.
  core::FpgaWorkload w;
  w.scale_divisor = 2048;
  const double paper_ms[4] = {701, 701, 642, 642};
  int i = 0;
  for (const auto& cfg : rng::all_configs()) {
    const auto r = run_fpga_application(cfg, w);
    EXPECT_NEAR(r.seconds_full * 1e3 / paper_ms[i], 1.0, 0.05) << cfg.name;
    ++i;
  }
}

TEST(FpgaApp, Eq1UnderestimatesMemoryBoundConfigs) {
  // §IV-E: Eq (1) is close for Config1/2 but ~35 % low for Config3/4,
  // because the transfers dominate there.
  core::FpgaWorkload w;
  w.scale_divisor = 2048;
  const auto c1 = run_fpga_application(rng::config(rng::ConfigId::kConfig1), w);
  const auto c3 = run_fpga_application(rng::config(rng::ConfigId::kConfig3), w);
  EXPECT_NEAR(c1.seconds_full / c1.eq1_seconds, 1.0, 0.15);
  EXPECT_GT(c3.seconds_full / c3.eq1_seconds, 1.3);
  EXPECT_GT(c3.compute_stall_fraction, c1.compute_stall_fraction);
}

TEST(FpgaApp, NaiveCounterSlowsKernel) {
  // The Listing 2 workaround is what keeps the FPGA competitive: with
  // the naive counter (II = 2) the compute side halves its issue rate
  // and the kernel becomes compute-bound.
  core::FpgaWorkload w;
  w.scale_divisor = 4096;
  const auto fast =
      run_fpga_application(rng::config(rng::ConfigId::kConfig1), w, 1, true);
  const auto slow =
      run_fpga_application(rng::config(rng::ConfigId::kConfig1), w, 1, false);
  EXPECT_GT(slow.seconds_full / fast.seconds_full, 1.5);
}

}  // namespace
}  // namespace dwi::core
