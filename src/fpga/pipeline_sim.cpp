#include "fpga/pipeline_sim.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.h"

namespace dwi::fpga {

namespace {

constexpr std::size_t kFloatsPerBeat = 16;  // 512-bit beats

/// The BernoulliProducer LCG (kernel_sim.cpp), reused so stage
/// acceptance draws are deterministic and cheap.
struct AcceptDraw {
  std::uint32_t threshold;
  std::uint64_t state;

  AcceptDraw(double acceptance, std::uint32_t seed)
      : threshold(static_cast<std::uint32_t>(
            acceptance >= 1.0
                ? 0xffffffffu
                : acceptance * 4294967296.0)),
        state(seed | 1u) {}

  bool operator()() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 32) <= threshold;
  }
};

struct Stage {
  const PipelineStageConfig* cfg;
  AcceptDraw draw;
  std::vector<std::uint8_t> shift;  ///< in-flight slots, [0]=newest
  unsigned ii_countdown = 0;
  PipelineStageStats stats;

  Stage(const PipelineStageConfig& c)
      : cfg(&c), draw(c.acceptance, c.seed), shift(c.latency, 0) {
    stats.name = c.name;
  }
};

/// Registered inter-stage FIFO: reads this cycle see only tokens
/// present at cycle start (`avail`); writes land in `pending` and
/// become visible next cycle. A read frees its slot for a same-cycle
/// write (first-word-fall-through on the write side).
struct SimPipe {
  std::size_t depth;
  std::size_t occ = 0;
  std::size_t avail = 0;    ///< readable this cycle (start-of-cycle occ)
  std::size_t pending = 0;  ///< written this cycle

  bool can_write() const { return occ + pending < depth; }
  void write() { ++pending; }
  bool can_read() const { return avail > 0; }
  void read() {
    --avail;
    --occ;
  }
  void begin_cycle() { avail = occ; }
  void end_cycle() {
    occ += pending;
    pending = 0;
  }
};

}  // namespace

PipelineSimResult simulate_pipeline(const PipelineSimConfig& cfg) {
  DWI_REQUIRE(!cfg.stages.empty(), "pipeline sim: need at least one stage");
  DWI_REQUIRE(cfg.pipe_depth >= 1, "pipeline sim: pipe depth must be >= 1");
  DWI_REQUIRE(cfg.outputs >= 1, "pipeline sim: need a quota");
  DWI_REQUIRE(cfg.burst_beats >= 1, "pipeline sim: need a burst size");
  for (const auto& s : cfg.stages) {
    DWI_REQUIRE(s.initiation_interval >= 1, "pipeline sim: II must be >= 1");
    DWI_REQUIRE(s.latency >= 1, "pipeline sim: latency must be >= 1");
    DWI_REQUIRE(s.acceptance > 0.0 && s.acceptance <= 1.0,
                "pipeline sim: acceptance must be in (0, 1]");
  }

  const std::size_t n = cfg.stages.size();
  std::vector<Stage> stages;
  stages.reserve(n);
  for (const auto& c : cfg.stages) stages.emplace_back(c);
  // pipes[s] is stage s's OUTPUT pipe; the last one feeds the
  // collector. Stage 0 has an unlimited source on its input side.
  std::vector<SimPipe> pipes(n);
  for (auto& p : pipes) p.depth = cfg.pipe_depth;

  BurstTimeline channel(cfg.channel);
  const std::size_t burst_floats = cfg.burst_beats * kFloatsPerBeat;
  // Double-buffered collector (Listing 4): one burst in flight while
  // the next fills.
  std::size_t buffer_floats = 0;
  std::size_t inflight_floats = 0;    ///< 0 when no burst is in flight
  std::uint64_t inflight_finish = 0;  ///< completing tick of that burst
  std::uint64_t collected = 0;  ///< floats taken off the last pipe
  std::uint64_t committed = 0;  ///< floats whose burst completed

  // Cycle c sees the channel after its c-th tick: a burst requested in
  // cycle c starts at tick c + 1 at the earliest, and its floats are
  // committed in the cycle of its completing tick.
  std::uint64_t cycle = 0;
  while (committed < cfg.outputs) {
    ++cycle;
    for (auto& p : pipes) p.begin_cycle();

    if (inflight_floats > 0 && cycle >= inflight_finish) {
      committed += inflight_floats;
      inflight_floats = 0;
    }

    // Collector: drain one float per cycle from the last pipe while
    // quota remains and the staging buffer has room.
    if (collected < cfg.outputs && pipes[n - 1].can_read() &&
        buffer_floats < 2 * burst_floats) {
      pipes[n - 1].read();
      ++buffer_floats;
      ++collected;
    }
    if (inflight_floats == 0) {
      if (buffer_floats >= burst_floats) {
        inflight_finish = channel.request(cycle, cfg.burst_beats).finish;
        buffer_floats -= burst_floats;
        inflight_floats = burst_floats;
      } else if (collected >= cfg.outputs && buffer_floats > 0) {
        // Final partial burst once the quota is fully collected.
        const auto beats = static_cast<unsigned>(
            (buffer_floats + kFloatsPerBeat - 1) / kFloatsPerBeat);
        inflight_finish = channel.request(cycle, beats).finish;
        inflight_floats = buffer_floats;
        buffer_floats = 0;
      }
    }

    // Stages: emission first — a full output pipe freezes the whole
    // stage this cycle (no shift, no initiation).
    for (std::size_t s = 0; s < n; ++s) {
      Stage& st = stages[s];
      const unsigned latency = st.cfg->latency;
      if (st.shift[latency - 1] != 0 && !pipes[s].can_write()) {
        ++st.stats.full_stalls;
        continue;  // frozen
      }
      if (st.shift[latency - 1] != 0) {
        pipes[s].write();
        ++st.stats.tokens_out;
      }
      for (std::size_t i = latency - 1; i > 0; --i) {
        st.shift[i] = st.shift[i - 1];
      }
      if (st.ii_countdown > 0) {
        --st.ii_countdown;
        st.shift[0] = 0;
      } else if (s == 0 || pipes[s - 1].can_read()) {
        if (s > 0) pipes[s - 1].read();
        ++st.stats.initiations;
        st.shift[0] = st.draw() ? 1 : 0;
        st.ii_countdown = st.cfg->initiation_interval - 1;
      } else {
        st.shift[0] = 0;
        ++st.stats.empty_stalls;  // starved: II slot open, input empty
      }
    }

    for (auto& p : pipes) p.end_cycle();
  }

  PipelineSimResult result;
  result.cycles = cycle;
  result.outputs = committed;
  result.stages.reserve(n);
  for (const auto& st : stages) result.stages.push_back(st.stats);
  // Every burst has completed by now, so the counts are final.
  result.bursts = channel.bursts_served();
  result.channel_bytes_per_cycle =
      static_cast<double>(channel.beats_transferred()) * 64.0 /
      static_cast<double>(cycle);
  return result;
}

double analytic_sink_rate(const PipelineSimConfig& cfg) {
  DWI_REQUIRE(!cfg.stages.empty(), "pipeline sim: need at least one stage");
  // Downstream acceptance products: tokens surviving from stage s's
  // output to the sink.
  double rate = 16.0 * static_cast<double>(cfg.burst_beats) /
                static_cast<double>(cfg.channel.turnaround_cycles +
                                    cfg.burst_beats);
  double downstream = 1.0;
  for (std::size_t s = cfg.stages.size(); s-- > 0;) {
    const auto& st = cfg.stages[s];
    rate = std::min(rate, st.acceptance * downstream /
                              static_cast<double>(st.initiation_interval));
    downstream *= st.acceptance;
  }
  return rate;
}

}  // namespace dwi::fpga
