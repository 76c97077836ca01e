// Cycle-exact simulation of the paper's decoupled-work-item design on
// the FPGA (Fig 3): N fully pipelined work-items, each a GammaRNG
// producer streaming into its own Transfer unit, all Transfer units
// sharing the device-memory channel.
//
// The modeled hardware, per clock:
//   * each work-item's compute pipeline launches one MAINLOOP iteration
//     every II cycles (II = 1 with the paper's delayed-counter
//     workaround, > 1 for the naive-counter ablation), emitting a
//     validated float with the algorithm's acceptance probability —
//     computed by a pluggable ProducerModel running the *real* numerics;
//   * emission blocks when the hls::stream FIFO is full (backpressure);
//   * the Transfer unit drains one float per cycle, packs 16 into a
//     512-bit beat, and bursts `burst_beats` beats at a time through
//     the shared memory channel (fpga::BurstTimeline; double-buffered,
//     per Listing 4's DEPENDENCE-false transfer buffer);
//   * the run ends when every quota is produced and flushed.
//
// How it is simulated. A work-item's produce() sequence does not depend
// on stalls or arbitration (they delay calls, never reorder them), so
// every work-item is first run to quota on the exec pool, 64
// initiations per ProducerModel::produce_word() call, recording one
// accept bit per initiation; the values are asked for only when
// record_outputs is set. The work-items then meet only at the channel,
// and the engine jumps from channel event to channel event (burst
// ready, granted, completed): in between, each work-item's FIFO and
// packer timing follows in closed form from rank/select on its accept
// bits. Results equal the cycle-stepped rules above bit for bit
// (tests/kernel_sim_oracle.h is that stepped loop, channel included;
// the differential test runs both).
//
// The same machinery serves Table III's FPGA column (real producer),
// Fig 7 (dummy producer, transfers only), and the ablation benches
// (II > 1, single coupled pipeline, burst-size sweeps).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fpga/device.h"
#include "fpga/memory_channel.h"

namespace dwi::fpga {

/// One pipeline initiation of a work-item's compute function.
class ProducerModel {
 public:
  virtual ~ProducerModel() = default;
  /// Run one initiation; returns true and sets *value when this
  /// initiation emits a validated output (rejection methods return
  /// false on rejected iterations — the pipeline keeps running).
  virtual bool produce(float* value) = 0;
  /// Run up to 64 initiations, stopping after the `want`-th accept
  /// (want >= 1); `ran` is set to the number run. Bit i of the result
  /// is initiation i's accept, exactly as produce() would have
  /// returned it. When `values` is not null the accepted values are
  /// written to it in order; it must have room for min(want, 64)
  /// floats. A producer may stop short of 64 without reaching `want`
  /// only when it has nothing left to run. The default calls produce()
  /// per initiation; producers with a cheaper bulk path override it.
  virtual std::uint64_t produce_word(std::uint64_t want, float* values,
                                     unsigned& ran);
};

/// Always-valid producer for transfers-only experiments (Fig 7's
/// "dummy data") and FIFO/channel stress tests.
class DummyProducer final : public ProducerModel {
 public:
  bool produce(float* value) override {
    *value = static_cast<float>(counter_++);
    return true;
  }
  std::uint64_t produce_word(std::uint64_t want, float* values,
                             unsigned& ran) override;

 private:
  std::uint32_t counter_ = 0;
};

/// Accept/reject with fixed probability from a cheap xorshift64* — for
/// timing tests that do not need the full numerics.
class BernoulliProducer final : public ProducerModel {
 public:
  BernoulliProducer(double acceptance, std::uint32_t seed);
  bool produce(float* value) override;
  std::uint64_t produce_word(std::uint64_t want, float* values,
                             unsigned& ran) override;

 private:
  std::uint32_t threshold_;
  std::uint64_t state_;
};

using ProducerFactory =
    std::function<std::unique_ptr<ProducerModel>(unsigned work_item)>;

/// Per-cycle schedule trace (Fig 3 visualization): one row of state
/// characters per work-item plus one for the memory channel.
///   work-item rows: 'C' initiation issued, '-' waiting for the next
///   initiation slot (II > 1), 'S' stalled on a full stream, '.' done;
///   channel row: the serving work-item's digit, '.' idle.
struct ScheduleTrace {
  std::vector<std::string> work_items;
  std::string channel;
};

struct KernelSimConfig {
  unsigned work_items = 6;
  unsigned initiation_interval = 1;  ///< II of MAINLOOP
  unsigned pipeline_latency = 90;    ///< datapath fill depth (cycles)
  std::size_t stream_depth = 64;     ///< gammaStream FIFO depth
  unsigned burst_beats = 16;         ///< beats per memcpy burst (LTRANSF)
  std::uint64_t outputs_per_work_item = 100'000;
  MemoryChannelConfig channel{};
  /// Independent device-memory channels; work-items are assigned
  /// round-robin. The paper's board exposes one (the Fig 3/Fig 7
  /// bottleneck); >1 models the "further customizations of the memory
  /// controller" its conclusion calls for (bench/extension_scaling).
  unsigned memory_channels = 1;
  /// Listing 4's `#pragma HLS DEPENDENCE variable=transfBuf false`
  /// lets the tool double-buffer the burst buffer, so collection
  /// overlaps the in-flight burst. false = the conservative schedule
  /// the tool produces WITHOUT the pragma: collection stalls while a
  /// burst is in flight (bench/ablation_stream_depth quantifies it).
  bool transfer_double_buffered = true;
  bool record_outputs = false;       ///< keep the generated floats
  ScheduleTrace* trace = nullptr;    ///< optional Fig 3 trace sink
};

struct KernelSimResult {
  std::uint64_t cycles = 0;          ///< total kernel cycles
  std::uint64_t outputs = 0;         ///< validated outputs written
  std::uint64_t attempts = 0;        ///< pipeline initiations
  std::uint64_t compute_stall_cycles = 0;  ///< FIFO-full backpressure
  std::uint64_t bursts = 0;
  double channel_bytes_per_cycle = 0.0;
  /// When record_outputs: every output in emission order (by cycle,
  /// then work-item).
  std::vector<float> outputs_data;

  double rejection_rate() const {
    return attempts == 0 ? 0.0
                         : 1.0 - static_cast<double>(outputs) /
                                     static_cast<double>(attempts);
  }
  double seconds_at(double clock_hz) const {
    return static_cast<double>(cycles) / clock_hz;
  }
  /// Achieved memory bandwidth in bytes/second.
  double bandwidth_bytes(double clock_hz) const {
    return channel_bytes_per_cycle * clock_hz;
  }
};

/// Run the design to completion.
KernelSimResult simulate_kernel(const KernelSimConfig& cfg,
                                const ProducerFactory& make_producer);

/// Linear extrapolation of a scaled simulation to the full workload
/// (steady-state argument, DESIGN.md §5): returns full-run seconds.
double extrapolate_seconds(const KernelSimResult& scaled,
                           std::uint64_t full_outputs, double clock_hz);

/// Eq (1): t ≈ numOutputs / (numWorkItems · f) · (1 + r), the paper's
/// compute-side approximation that ignores the memory bottleneck.
double eq1_theoretical_seconds(std::uint64_t total_outputs,
                               unsigned work_items, double clock_hz,
                               double rejection_rate);

}  // namespace dwi::fpga
