// Differential tests: the event-driven KernelSim (src/fpga/kernel_sim.cpp)
// against the cycle-stepped oracle (kernel_sim_oracle.h). Every
// KernelSimResult field, the Fig 2/3 trace rows and outputs_data must
// agree byte for byte, for any thread count. The seeded grid prints
// each case's seed; rerun one case with KERNEL_SIM_CASE_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/gamma_work_item.h"
#include "exec/thread_pool.h"
#include "fpga/kernel_sim.h"
#include "fpga/memory_channel.h"
#include "kernel_sim_oracle.h"
#include "rng/configs.h"

namespace dwi {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { exec::set_thread_count(0); }
};

fpga::ProducerFactory bernoulli(double acceptance, std::uint32_t seed) {
  return [=](unsigned w) {
    return std::make_unique<fpga::BernoulliProducer>(acceptance, seed + w);
  };
}

fpga::ProducerFactory gamma(rng::ConfigId id, std::uint64_t quota,
                            std::uint32_t seed) {
  return [=](unsigned w) {
    core::GammaWorkItemConfig wc;
    wc.app = rng::config(id);
    wc.outputs_per_sector = static_cast<std::uint32_t>(quota);
    wc.work_item_id = w;
    wc.seed = seed;
    return std::make_unique<core::GammaWorkItem>(wc);
  };
}

unsigned draw(std::mt19937& gen, std::size_t n) {
  return static_cast<unsigned>(gen() % n);
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Run the engine (with a trace) and the oracle on `cfg`, and compare.
void expect_matches_oracle(fpga::KernelSimConfig cfg,
                           const fpga::ProducerFactory& make_producer) {
  fpga::ScheduleTrace engine_trace, oracle_trace;
  cfg.trace = &engine_trace;
  const fpga::KernelSimResult a = fpga::simulate_kernel(cfg, make_producer);
  cfg.trace = &oracle_trace;
  const fpga::KernelSimResult b =
      testing::simulate_kernel_stepped(cfg, make_producer);

  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.compute_stall_cycles, b.compute_stall_cycles);
  EXPECT_EQ(a.bursts, b.bursts);
  EXPECT_TRUE(same_bytes(a.channel_bytes_per_cycle, b.channel_bytes_per_cycle))
      << a.channel_bytes_per_cycle << " vs " << b.channel_bytes_per_cycle;
  ASSERT_EQ(a.outputs_data.size(), b.outputs_data.size());
  EXPECT_TRUE(a.outputs_data.empty() ||
              std::memcmp(a.outputs_data.data(), b.outputs_data.data(),
                          a.outputs_data.size() * sizeof(float)) == 0);
  ASSERT_EQ(engine_trace.work_items.size(), oracle_trace.work_items.size());
  for (std::size_t w = 0; w < oracle_trace.work_items.size(); ++w) {
    EXPECT_EQ(engine_trace.work_items[w], oracle_trace.work_items[w])
        << "work-item " << w;
  }
  EXPECT_EQ(engine_trace.channel, oracle_trace.channel);

  // Tracing and recording observe the schedule; they must not move it.
  cfg.trace = nullptr;
  cfg.record_outputs = false;
  const fpga::KernelSimResult bare = fpga::simulate_kernel(cfg, make_producer);
  EXPECT_EQ(bare.cycles, b.cycles);
  EXPECT_EQ(bare.compute_stall_cycles, b.compute_stall_cycles);
  EXPECT_EQ(bare.bursts, b.bursts);
  EXPECT_TRUE(bare.outputs_data.empty());
}

// ---------------------------------------------------------------------
// Pinned scenarios
// ---------------------------------------------------------------------

TEST(KernelSimOracle, MatchesSteppedOnFig2Fig3Scenario) {
  // The exact configuration bench/fig2_fig3_schedules renders.
  fpga::KernelSimConfig cfg;
  cfg.work_items = 4;
  cfg.outputs_per_work_item = 192;
  cfg.burst_beats = 2;
  cfg.stream_depth = 8;
  cfg.channel.turnaround_cycles = 6;
  expect_matches_oracle(cfg, bernoulli(0.766, 33));
}

TEST(KernelSimOracle, MatchesSteppedWithIIAndMultiChannel) {
  fpga::KernelSimConfig cfg;
  cfg.work_items = 5;
  cfg.outputs_per_work_item = 300;
  cfg.initiation_interval = 3;
  cfg.burst_beats = 4;
  cfg.stream_depth = 16;
  cfg.memory_channels = 2;
  cfg.transfer_double_buffered = false;
  cfg.channel.turnaround_cycles = 41;
  cfg.record_outputs = true;
  expect_matches_oracle(cfg, bernoulli(0.5, 101));
}

TEST(KernelSimOracle, MatchesSteppedWithGammaProducers) {
  fpga::KernelSimConfig cfg;
  cfg.work_items = 3;
  cfg.outputs_per_work_item = 256;
  cfg.burst_beats = 2;
  cfg.stream_depth = 8;
  cfg.channel.turnaround_cycles = 12;
  cfg.record_outputs = true;
  expect_matches_oracle(cfg, gamma(rng::ConfigId::kConfig2, 256, 77));
}

TEST(KernelSimOracle, SixtyFourWorkItemsNeverFillTheChannelQueue) {
  // The most requests one channel can hold: 64 always-valid work-items
  // fill their first 1-beat burst in the same cycle, so the last of
  // them finds 63 bursts queued. The oracle's 64-deep queue asserts it
  // never overflows.
  fpga::KernelSimConfig cfg;
  cfg.work_items = 64;
  cfg.outputs_per_work_item = 160;
  cfg.burst_beats = 1;
  cfg.channel.turnaround_cycles = 41;
  cfg.record_outputs = true;
  expect_matches_oracle(cfg, [](unsigned) {
    return std::make_unique<fpga::DummyProducer>();
  });
}

TEST(KernelSimOracle, BernoulliIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  fpga::KernelSimConfig cfg;
  cfg.work_items = 4;
  cfg.outputs_per_work_item = 3000;
  cfg.stream_depth = 16;
  cfg.burst_beats = 8;
  cfg.record_outputs = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::set_thread_count(threads);
    SCOPED_TRACE(threads);
    expect_matches_oracle(cfg, bernoulli(0.7, 1000));
  }
}

TEST(KernelSimOracle, GammaNumericsIdenticalAcrossThreadCounts) {
  // The real Listing 2 producer: rejection sampling with enable-gated
  // twisters, two sectors of 1500 outputs each.
  ThreadCountGuard guard;
  fpga::KernelSimConfig cfg;
  cfg.work_items = 4;
  cfg.outputs_per_work_item = 3000;
  cfg.stream_depth = 16;
  cfg.burst_beats = 8;
  cfg.record_outputs = true;
  const fpga::ProducerFactory factory = [](unsigned wid) {
    core::GammaWorkItemConfig wc;
    wc.app = rng::config(rng::ConfigId::kConfig1);
    wc.sector_variances = {1.39f, 0.25f};
    wc.outputs_per_sector = 1500;
    wc.work_item_id = wid;
    wc.seed = 7u;
    return std::make_unique<core::GammaWorkItem>(wc);
  };
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::set_thread_count(threads);
    SCOPED_TRACE(threads);
    expect_matches_oracle(cfg, factory);
  }
}

TEST(KernelSimOracle, TraceIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  fpga::KernelSimConfig cfg;
  cfg.work_items = 4;
  cfg.outputs_per_work_item = 200;
  cfg.stream_depth = 16;
  cfg.burst_beats = 8;
  fpga::ScheduleTrace reference;
  cfg.trace = &reference;
  (void)testing::simulate_kernel_stepped(cfg, bernoulli(0.7, 1000));
  for (const unsigned threads : {1u, 4u}) {
    exec::set_thread_count(threads);
    fpga::ScheduleTrace trace;
    cfg.trace = &trace;
    (void)fpga::simulate_kernel(cfg, bernoulli(0.7, 1000));
    EXPECT_EQ(trace.work_items, reference.work_items) << threads;
    EXPECT_EQ(trace.channel, reference.channel) << threads;
  }
}

// ---------------------------------------------------------------------
// The closed-form channel against the ticked one
// ---------------------------------------------------------------------

TEST(KernelSimOracle, BurstTimelineMatchesTickedChannel) {
  // Random requests from 64 requesters, several per cycle, so the queue
  // runs deep, against the same requests driven through the oracle's
  // stepped channel.
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    std::mt19937 gen(seed);
    fpga::MemoryChannelConfig cfg;
    cfg.turnaround_cycles = draw(gen, 8);
    testing::SteppedChannel ticked(cfg);
    fpga::BurstTimeline timeline(cfg);
    std::vector<std::uint64_t> start(64, 0), finish(64, 0);
    std::vector<bool> busy(64, false);
    int last_active = -1;
    for (std::uint64_t cycle = 0; cycle < 3000; ++cycle) {
      for (unsigned r = 0; r < 64; ++r) {
        if (ticked.burst_done(r)) {
          ASSERT_TRUE(busy[r]);
          EXPECT_EQ(finish[r], cycle) << "requester " << r;
          busy[r] = false;
        }
      }
      for (unsigned n = draw(gen, 3); n > 0; --n) {
        const unsigned r = draw(gen, 64);
        if (busy[r]) continue;
        const unsigned beats = 1 + draw(gen, 18);
        ticked.request_burst(r, beats);
        const fpga::BurstTimeline::Slot slot = timeline.request(cycle, beats);
        busy[r] = true;
        start[r] = slot.start;
        finish[r] = slot.finish;
      }
      ticked.tick();
      // A burst shows as active from its dequeue tick on.
      const int active = ticked.active_requester();
      if (active >= 0 && active != last_active) {
        EXPECT_EQ(start[static_cast<unsigned>(active)], ticked.cycles());
      }
      last_active = active;
    }
    for (unsigned r = 0; r < 64; ++r) {
      if (busy[r]) {
        EXPECT_GE(finish[r], ticked.cycles()) << "requester " << r;
      }
    }
    EXPECT_EQ(timeline.bursts_served(),
              ticked.bursts_served() +
                  static_cast<std::uint64_t>(
                      std::count(busy.begin(), busy.end(), true)));
  }
}

// ---------------------------------------------------------------------
// Seeded grid
// ---------------------------------------------------------------------

/// One random point of the grid, drawn from its seed.
struct GridCase {
  std::uint32_t seed = 0;
  fpga::KernelSimConfig cfg;
  double acceptance = 1.0;  ///< < 0: GammaWorkItem producers
  unsigned threads = 1;

  explicit GridCase(std::uint32_t s) : seed(s) {
    std::mt19937 gen(s);
    const auto pick = [&gen](std::initializer_list<unsigned> v) {
      return *(v.begin() + draw(gen, v.size()));
    };
    cfg.work_items = pick({1, 2, 3, 4, 5, 6, 7, 8, 64});
    cfg.initiation_interval = pick({1, 2, 3});
    cfg.stream_depth = pick({1, 2, 64});
    cfg.burst_beats = pick({1, 16, 18});
    cfg.transfer_double_buffered = draw(gen, 2) == 0;
    cfg.memory_channels = pick({1, 2, 3});
    cfg.channel.turnaround_cycles = pick({0, 6, 41});
    cfg.pipeline_latency = pick({0, 90});
    // Mostly not a multiple of 16, so the tail beat is padded.
    const unsigned max_quota = cfg.work_items > 8 ? 90 : 700;
    cfg.outputs_per_work_item = 1 + draw(gen, max_quota);
    cfg.record_outputs = true;
    const unsigned p = draw(gen, 5);
    acceptance = p == 4 ? -1.0 : std::vector<double>{0.05, 0.5, 0.766, 1.0}[p];
    threads = pick({1, 2, 4});
  }

  fpga::ProducerFactory producers() const {
    if (acceptance < 0) {
      return gamma(rng::ConfigId::kConfig1, cfg.outputs_per_work_item, seed);
    }
    return bernoulli(acceptance, seed);
  }

  std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " wi=" << cfg.work_items
       << " ii=" << cfg.initiation_interval << " depth=" << cfg.stream_depth
       << " beats=" << cfg.burst_beats
       << " double=" << cfg.transfer_double_buffered
       << " channels=" << cfg.memory_channels
       << " turnaround=" << cfg.channel.turnaround_cycles
       << " quota=" << cfg.outputs_per_work_item
       << " acceptance=" << acceptance << " threads=" << threads;
    return os.str();
  }
};

TEST(KernelSimOracle, SeededGridMatchesStepped) {
  ThreadCountGuard guard;
  std::vector<std::uint32_t> seeds;
  if (const char* one = std::getenv("KERNEL_SIM_CASE_SEED")) {
    seeds.push_back(static_cast<std::uint32_t>(std::strtoul(one, nullptr, 10)));
  } else {
    for (std::uint32_t s = 1; s <= 400; ++s) seeds.push_back(s);
  }
  for (const std::uint32_t seed : seeds) {
    const GridCase c(seed);
    SCOPED_TRACE(c.describe());
    exec::set_thread_count(c.threads);
    expect_matches_oracle(c.cfg, c.producers());
    if (::testing::Test::HasFailure()) break;  // one case is enough to debug
  }
}

TEST(KernelSimOracle, LargeQuotaRunsWithoutFallback) {
  // Tapes hold one accept bit per initiation, so a quota above 8M
  // outputs per work-item needs no special path.
  fpga::KernelSimConfig cfg;
  cfg.work_items = 2;
  cfg.outputs_per_work_item = (std::uint64_t{1} << 23) + 16;
  const auto r = fpga::simulate_kernel(cfg, bernoulli(1.0, 5));
  EXPECT_EQ(r.outputs, 2 * cfg.outputs_per_work_item);
  EXPECT_EQ(r.attempts, r.outputs);
  EXPECT_EQ(r.bursts, 2 * (cfg.outputs_per_work_item / 256 + 1));
}

}  // namespace
}  // namespace dwi
