// Cycle-level model of CO-RESIDENT kernels chained by inter-kernel
// pipes — the device-side shape of finance/pipeline's stage chain,
// which the host runs as sector work-items instead — and the
// multi-kernel generalization of kernel_sim.h (which models N
// *identical* decoupled work-items behind one channel; here the stages
// are *heterogeneous* and dependent, the OpenCL-pipes / Intel-channels
// topology of the MKPipe line of work).
//
// Each stage is one pipelined kernel: it launches an initiation every
// II cycles when a token is available on its input pipe, carries it
// through `latency` pipeline cycles, and emits a result token with
// probability `acceptance` (rejection stages filter the token stream —
// the data-dependent production of the paper's Listing 2, moved across
// a kernel boundary). Pipes are depth-bounded FIFOs with registered
// handoff (a token written in cycle c is readable in cycle c+1):
//
//   * output pipe full at emission time  → the stage FREEZES this
//     cycle (classic HLS pipeline stall; backpressure propagates
//     upstream stage by stage) — counted in full_stalls;
//   * input pipe empty at initiation time → the stage inserts a bubble
//     — counted in empty_stalls (starvation).
//
// The final stage drains into a transfer collector that packs 16
// floats per 512-bit beat and bursts through the memory channel
// (fpga::BurstTimeline, double-buffered as in Listing 4), so the sink
// sees the same memory bottleneck as kernel_sim. The run ends when the
// quota has been burst to memory. The stages themselves are stepped
// one cycle at a time.
//
// The steady-state sink throughput is bounded by the slowest stage in
// token terms — min over stages of acceptance_s/II_s scaled by the
// downstream acceptance product — and by the channel's burst
// efficiency; analytic_sink_rate() computes the bound, and
// tests/test_pipeline.cpp checks the simulator converges to it and
// that deepening pipes is monotonically non-slower.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/memory_channel.h"

namespace dwi::fpga {

/// One resident kernel in the chain.
struct PipelineStageConfig {
  std::string name;
  unsigned initiation_interval = 1;  ///< II of the stage's main loop
  unsigned latency = 10;             ///< datapath depth in cycles
  /// Probability an initiation emits a token (1.0 = pure map; the
  /// Marsaglia-Tsang rejection stage is ~0.95 given a valid normal).
  double acceptance = 1.0;
  std::uint32_t seed = 1;  ///< for the acceptance draws (deterministic)
};

struct PipelineSimConfig {
  /// stages[0] is the source (unlimited input); the last stage feeds
  /// the memory collector.
  std::vector<PipelineStageConfig> stages;
  std::size_t pipe_depth = 8;        ///< depth of every inter-stage pipe
  std::uint64_t outputs = 100'000;   ///< floats the sink must commit
  unsigned burst_beats = 16;         ///< beats per burst (16 floats/beat)
  MemoryChannelConfig channel{};
};

struct PipelineStageStats {
  std::string name;
  std::uint64_t initiations = 0;
  std::uint64_t tokens_out = 0;
  std::uint64_t full_stalls = 0;   ///< cycles frozen on a full output pipe
  std::uint64_t empty_stalls = 0;  ///< cycles starved on an empty input
};

struct PipelineSimResult {
  std::uint64_t cycles = 0;
  std::uint64_t outputs = 0;  ///< floats committed to memory
  std::vector<PipelineStageStats> stages;
  std::uint64_t bursts = 0;
  double channel_bytes_per_cycle = 0.0;

  double outputs_per_cycle() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(outputs) /
                             static_cast<double>(cycles);
  }
};

/// Run the chain to completion (quota burst to memory).
PipelineSimResult simulate_pipeline(const PipelineSimConfig& cfg);

/// Steady-state sink tokens/cycle bound: min over stages of the
/// stage-limited rate (acceptance_s / II_s x downstream acceptance
/// product) and the channel's burst-efficiency rate.
double analytic_sink_rate(const PipelineSimConfig& cfg);

}  // namespace dwi::fpga
