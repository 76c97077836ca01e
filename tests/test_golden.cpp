// Golden-value regression tests: exact outputs of the numerics for
// pinned seeds/inputs. Statistical tests cannot see a one-in-a-million
// perturbation (a changed rounding, a reordered operation); these
// pins can. Update the constants deliberately when the algorithm
// changes, never to silence a failure.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <future>
#include <ios>
#include <memory>
#include <string>
#include <vector>

#include "core/decoupled_work_items.h"
#include "core/fpga_app.h"
#include "core/gamma_work_item.h"
#include "finance/pipeline.h"
#include "finance/portfolio.h"
#include "fpga/kernel_sim.h"
#include "fpga/pipeline_sim.h"
#include "rng/erfinv.h"
#include "rng/icdf_bitwise.h"
#include "rng/mersenne_twister.h"
#include "serve/cluster.h"
#include "workloads/histogram.h"
#include "workloads/spmv.h"

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

TEST(Golden, Fig7TransferCycles) {
  // bench/fig7_transfers' grid: dummy data, 1/256 of the 2.5 GB run,
  // every burst length against 1-8 work-items on one channel.
  struct Cell {
    std::uint64_t cycles, bursts;
  };
  constexpr std::array<unsigned, 10> kBeats = {1,  2,  4,  8,   16,
                                               18, 32, 64, 128, 256};
  constexpr std::array<unsigned, 5> kWorkItems = {1, 2, 4, 6, 8};
  constexpr std::array<std::array<Cell, 5>, 10> expected = {{
      {{{6451306, 153600}, {6451306, 153600}, {6451306, 153600},
        {6451306, 153600}, {6451306, 153600}}},
      {{{3302522, 76800}, {3302522, 76800}, {3302522, 76800},
        {3302522, 76800}, {3302522, 76800}}},
      {{{2457735, 38400}, {1728154, 38400}, {1728154, 38400},
        {1728154, 38400}, {1728154, 38400}}},
      {{{2457739, 19200}, {1228988, 19200}, {941018, 19200},
        {941018, 19200}, {941018, 19200}}},
      {{{2457747, 9600}, {1229004, 9600}, {614718, 9600}, {547546, 9600},
        {547546, 9600}}},
      {{{2457737, 8534}, {1228996, 8534}, {614818, 8536}, {504036, 8538},
        {503954, 8536}}},
      {{{2457763, 4800}, {1229036, 4800}, {614782, 4800}, {410128, 4800},
        {351002, 4800}}},
      {{{2457795, 2400}, {1229100, 2400}, {614910, 2400}, {410320, 2400},
        {308130, 2400}}},
      {{{2457859, 1200}, {1229228, 1200}, {615166, 1200}, {410704, 1200},
        {308642, 1200}}},
      {{{2457987, 600}, {1229484, 600}, {615678, 600}, {411472, 600},
        {309666, 600}}},
  }};
  const std::uint64_t sim_floats = 2'621'440ull * 240ull / 256;
  for (std::size_t b = 0; b < kBeats.size(); ++b) {
    for (std::size_t n = 0; n < kWorkItems.size(); ++n) {
      fpga::KernelSimConfig cfg;
      cfg.work_items = kWorkItems[n];
      cfg.burst_beats = kBeats[b];
      cfg.outputs_per_work_item = sim_floats / kWorkItems[n];
      const auto r = fpga::simulate_kernel(cfg, [](unsigned) {
        return std::make_unique<fpga::DummyProducer>();
      });
      SCOPED_TRACE(std::to_string(kBeats[b]) + " beats, " +
                   std::to_string(kWorkItems[n]) + " work-items");
      EXPECT_EQ(r.cycles, expected[b][n].cycles);
      EXPECT_EQ(r.bursts, expected[b][n].bursts);
    }
  }
}

TEST(Golden, PipelineSimDepthModel) {
  // bench/pipeline_creditrisk's depth model: the CreditRisk+ chain
  // (uniform, normal, gamma, aggregate) at 50k outputs per pipe depth.
  struct Stage {
    std::uint64_t tokens_out, full_stalls, empty_stalls;
  };
  struct Depth {
    std::size_t pipe_depth;
    std::uint64_t cycles, bursts;
    double bytes_per_cycle;
    std::array<Stage, 4> stages;
  };
  const std::array<Depth, 4> expected = {{
      {1, 134163, 196, 0x1.7da0160aed0ap+0,
       {{{67058, 67097, 0}, {52682, 40, 67066}, {50009, 41, 81441},
         {50001, 44, 84111}}}},
      {2, 67163, 196, 0x1.7d29890625ecfp+1,
       {{{67115, 40, 0}, {52719, 41, 9}, {50015, 42, 14404},
         {50002, 45, 17105}}}},
      {8, 67163, 196, 0x1.7d29890625ecfp+1,
       {{{67143, 12, 0}, {52737, 19, 9}, {50025, 27, 14407},
         {50008, 38, 17108}}}},
      {64, 67163, 196, 0x1.7d29890625ecfp+1,
       {{{67155, 0, 0}, {52752, 0, 9}, {50046, 0, 14412},
         {50032, 0, 17118}}}},
  }};
  fpga::PipelineSimConfig sim;
  sim.stages = {{"uniform", 1, 8, 1.0, 11},
                {"normal", 1, 24, 0.785, 22},
                {"gamma", 1, 64, 0.95, 33},
                {"aggregate", 1, 16, 1.0, 44}};
  sim.outputs = 50'000;
  for (const Depth& d : expected) {
    SCOPED_TRACE(d.pipe_depth);
    sim.pipe_depth = d.pipe_depth;
    const fpga::PipelineSimResult r = fpga::simulate_pipeline(sim);
    EXPECT_EQ(r.cycles, d.cycles);
    EXPECT_EQ(r.outputs, 50'000u);
    EXPECT_EQ(r.bursts, d.bursts);
    EXPECT_EQ(r.channel_bytes_per_cycle, d.bytes_per_cycle)
        << std::hexfloat << r.channel_bytes_per_cycle;
    ASSERT_EQ(r.stages.size(), d.stages.size());
    for (std::size_t s = 0; s < d.stages.size(); ++s) {
      SCOPED_TRACE(r.stages[s].name);
      EXPECT_EQ(r.stages[s].tokens_out, d.stages[s].tokens_out);
      EXPECT_EQ(r.stages[s].full_stalls, d.stages[s].full_stalls);
      EXPECT_EQ(r.stages[s].empty_stalls, d.stages[s].empty_stalls);
    }
  }
}

TEST(Golden, CreditRiskPipelineFingerprints) {
  // bench/pipeline_creditrisk's bit-identity table (8-sector, 12-obligor
  // book, seed 1, 4000 scenarios): an FNV-1a hash over the sorted loss
  // vector, per substream strategy. PipelineIdentity.* compares piped
  // with staged inside one build; this pins the bytes themselves, so a
  // change to the shared aggregation moves it.
  const finance::Portfolio book = finance::Portfolio::synthetic(
      12,
      {{1.39, "representative"},
       {0.8, "stable"},
       {1.1, "cyclical"},
       {1.6, "volatile"},
       {0.5, "utilities"},
       {2.0, "emerging"},
       {1.39, "financials"},
       {0.9, "industrial"}},
      1);
  const struct {
    rng::StreamStrategy strategy;
    std::uint64_t fingerprint;
  } expected[] = {{rng::StreamStrategy::kDistinctSeeds, 0x033d207d5aa10ef3ull},
                  {rng::StreamStrategy::kCounterBased, 0x8a92a027ca143719ull}};
  const auto fingerprint = [](const finance::LossDistribution& d) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto* bytes = reinterpret_cast<const unsigned char*>(d.losses().data());
    for (std::size_t i = 0; i < d.losses().size() * sizeof(double); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
    return h;
  };
  for (const auto& e : expected) {
    finance::PipelineConfig cfg;
    cfg.num_scenarios = 4'000;
    cfg.seed = 1;
    cfg.strategy = e.strategy;
    SCOPED_TRACE(static_cast<int>(e.strategy));
    const std::uint64_t piped = fingerprint(finance::run_piped(book, cfg));
    const std::uint64_t staged = fingerprint(finance::run_staged(book, cfg));
    EXPECT_EQ(piped, e.fingerprint) << std::hex << piped;
    EXPECT_EQ(staged, e.fingerprint) << std::hex << staged;
  }
}

/// FNV-1a over every 512-bit word of a device buffer, 64 bits at a
/// time, low half first.
std::uint64_t device_buffer_hash(const std::vector<core::MemoryWord>& buf) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const core::MemoryWord& w : buf) {
    for (unsigned k = 0; k < 8; ++k) {
      const std::uint64_t part = w.get_range64(64 * k + 63, 64 * k);
      for (unsigned b = 0; b < 8; ++b) {
        h ^= (part >> (8 * b)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

TEST(Golden, DecoupledGammaTaskDeviceBuffer) {
  // examples/quickstart's Task (Config2, 6 work-items x 65,536, seed
  // 2024, sector variance 1.39) and test_core's ramp Task: the device
  // buffer depends only on each work-item's value sequence, so any
  // change to how work-items run or how Transfer packs words moves it.
  core::DecoupledConfig task;
  task.work_items = 6;
  task.floats_per_work_item = 65'536;
  const auto gamma = core::run_gamma_task(task, [&](unsigned wid) {
    core::GammaWorkItemConfig cfg;
    cfg.app = rng::config(rng::ConfigId::kConfig2);
    cfg.sector_variances = {1.39f};
    cfg.outputs_per_sector =
        static_cast<std::uint32_t>(task.floats_per_work_item);
    cfg.work_item_id = wid;
    cfg.seed = 2024;
    return cfg;
  });
  ASSERT_EQ(gamma.device_buffer.size(), 6u * 65'536u / 16u);
  const std::uint64_t gamma_hash = device_buffer_hash(gamma.device_buffer);
  EXPECT_EQ(gamma_hash, 0xbfb8494c7849c400ull) << std::hex << gamma_hash;

  core::DecoupledConfig ramp;
  ramp.work_items = 4;
  ramp.floats_per_work_item = 2048;
  const auto result = core::run_decoupled_work_items(
      ramp, [](unsigned wid, core::TransferUnit& out, std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
          out.write(static_cast<float>(wid) * 1e6f + static_cast<float>(i));
        }
      });
  const std::uint64_t ramp_hash = device_buffer_hash(result.device_buffer);
  EXPECT_EQ(ramp_hash, 0x7f6580b139834608ull) << std::hex << ramp_hash;
}

TEST(Golden, ZooHistogramSpmvStats) {
  // bench/workload_zoo's default spec (seed 1: 16,384 histogram updates
  // over 256 bins at hot fraction 0.5, then a 2048-row SpMV with 0-8
  // nonzeros per row, traces drawn in that order from one MT19937):
  // every WorkloadStats field of both kernels in both scheduling modes.
  rng::MersenneTwister mt(rng::mt19937_params(), 1u);
  const auto next = [&mt] { return mt.next(); };
  const auto trace = workloads::make_histogram_trace(1u << 14, 256, 0.5f, next);
  const auto matrix = workloads::make_spmv_matrix(2048, 2048, 0, 8, next);
  const auto x = workloads::make_dense_vector(2048, next);

  const auto fields = [](const workloads::WorkloadStats& s) {
    return std::array<std::uint64_t, 7>{
        s.cycles,    s.initiations,           s.hazard_stall_cycles,
        s.forwarded, s.pipe_full_stall_cycles, s.pipe_empty_stall_cycles,
        s.skipped};
  };
  const auto print = [](const std::array<std::uint64_t, 7>& f) {
    std::string out;
    for (const std::uint64_t v : f) out += std::to_string(v) + ", ";
    return out;
  };
  const struct {
    workloads::SchedulingMode mode;
    std::array<std::uint64_t, 7> histogram;
    std::array<std::uint64_t, 7> spmv;
  } expected[] = {
      {workloads::SchedulingMode::kStatic,
       {65534, 16384, 49149, 0, 49118, 1, 0},
       {48712, 2048, 24246, 0, 46664, 16384, 0}},
      {workloads::SchedulingMode::kDynamic,
       {22744, 16384, 6359, 6359, 6347, 1, 0},
       {9711, 2048, 1397, 0, 7663, 0, 0}},
  };
  for (const auto& e : expected) {
    SCOPED_TRACE(static_cast<int>(e.mode));
    workloads::HistogramConfig hc;
    hc.mode = e.mode;
    const auto h = fields(
        workloads::run_histogram(hc, trace.addrs, trace.weights).stats);
    EXPECT_EQ(h, e.histogram) << print(h);
    workloads::SpmvConfig sc;
    sc.mode = e.mode;
    const auto s = fields(workloads::run_spmv(sc, matrix, x).stats);
    EXPECT_EQ(s, e.spmv) << print(s);
  }
}

TEST(Golden, ServeClusterOneShardFingerprint) {
  // bench/serve_cluster's 1-shard cell at default arguments (seed 1):
  // 256 requests, every eighth a CreditRisk+ request (48 obligors, two
  // sectors, 256 scenarios) and the rest gamma requests of 1024 samples
  // over four shapes, fingerprinted in set order with FNV-1a over each
  // result's id, samples and attempts (gamma) or id and loss statistics
  // (CreditRisk+). Every gamma request draws from the Philox block
  // kernel and every CreditRisk+ one from the Poisson-half kernels, so
  // this pins their bytes at whichever level the suite runs.
  const auto portfolio = std::make_shared<const finance::Portfolio>(
      finance::Portfolio::synthetic(
          48, {{1.39, "representative"}, {0.8, "stable"}}, 1));
  const float alphas[4] = {0.72f, 1.5f, 2.47f, 5.0f};
  constexpr std::size_t kRequests = 256;
  serve::ClusterConfig cfg;
  cfg.num_shards = 1;
  cfg.shard.server_seed = 1;
  cfg.shard.queue_capacity = kRequests + 1;
  serve::ShardedSamplingServer cluster(cfg);
  std::vector<std::future<serve::GammaResult>> gamma(kRequests);
  std::vector<std::future<serve::CreditRiskResult>> credit(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (i % 8 == 7) {
      credit[i] =
          cluster.submit(serve::CreditRiskRequest{i + 1, portfolio, 256});
    } else {
      serve::GammaRequest r;
      r.id = i + 1;
      r.alpha = alphas[i % 4];
      r.scale = 1.0f;
      r.count = 1024;
      gamma[i] = cluster.submit(r);
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (i % 8 == 7) {
      const serve::CreditRiskResult r = credit[i].get();
      const double stats[5] = {r.mean, r.variance, r.var95, r.var999, r.es999};
      mix(&r.id, sizeof r.id);
      mix(stats, sizeof stats);
    } else {
      const serve::GammaResult r = gamma[i].get();
      mix(&r.id, sizeof r.id);
      mix(r.samples.data(), r.samples.size() * sizeof(float));
      mix(&r.attempts, sizeof r.attempts);
    }
  }
  EXPECT_EQ(h, 0x8386e164e80bc2d6ull) << std::hex << h;
}

}  // namespace
}  // namespace dwi
