// The cycle-stepped KernelSim: the reference the event-driven engine in
// src/fpga/kernel_sim.cpp is checked against, the way the scalar RNG
// kernels are the oracle for the AVX2 ones. It advances the whole
// design one clock at a time, visiting every work-item on every cycle
// and calling each producer inline, so it is slow and obviously
// faithful to the per-cycle rules:
//   * compute: one initiation every II cycles; an accepted output that
//     finds the FIFO full stalls the pipeline ('S') and is retried
//     every cycle, freezing the II countdown;
//   * transfer: consume the burst-done flag, pop one float if the burst
//     buffer has room, pad the tail beat once the work-item is done,
//     then request a burst when B beats (or the padded tail) are ready;
//   * the channels tick after every work-item has run its cycle.
// Its memory channel is stepped too (SteppedChannel below), so the
// closed-form fpga::BurstTimeline is checked against it as well.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/ring_buffer.h"
#include "fpga/kernel_sim.h"
#include "fpga/memory_channel.h"

namespace dwi::testing {

/// The memory channel one tick at a time: requests queue FIFO and the
/// channel serves one burst at a time. The dequeuing tick is the first
/// busy one, so a burst completes after turnaround + beats ticks in
/// total, and its requester sees burst_done() from that tick's cycle
/// on. The queue holds one burst per possible requester; a requester
/// with at most one burst outstanding never finds it full, which
/// request_burst() asserts.
class SteppedChannel {
 public:
  static constexpr std::size_t kQueueDepth = 64;

  explicit SteppedChannel(fpga::MemoryChannelConfig cfg)
      : cfg_(cfg), queue_(kQueueDepth) {}

  void request_burst(unsigned requester, unsigned beats) {
    DWI_ASSERT(beats >= 1 && requester < 64);
    const bool queued = queue_.try_push(Burst{requester, beats});
    DWI_ASSERT(queued);
  }

  void tick() {
    ++cycle_;
    if (!in_flight_ && !queue_.empty()) {
      current_ = queue_.pop();
      in_flight_ = true;
      finish_cycle_ = cycle_ + cfg_.turnaround_cycles + current_.beats - 1;
    }
    if (in_flight_ && cycle_ >= finish_cycle_) {
      beats_transferred_ += current_.beats;
      ++bursts_served_;
      done_mask_ |= std::uint64_t{1} << current_.requester;
      in_flight_ = false;
    }
  }

  /// True once per completed burst of `requester`.
  bool burst_done(unsigned requester) {
    const std::uint64_t bit = std::uint64_t{1} << requester;
    const bool done = (done_mask_ & bit) != 0;
    done_mask_ &= ~bit;
    return done;
  }

  bool idle() const { return !in_flight_ && queue_.empty(); }

  /// The requester whose burst occupies the channel, or -1 when idle.
  int active_requester() const {
    return in_flight_ ? static_cast<int>(current_.requester) : -1;
  }

  std::uint64_t cycles() const { return cycle_; }
  std::uint64_t bursts_served() const { return bursts_served_; }
  double bytes_per_cycle() const {
    return cycle_ == 0 ? 0.0
                       : static_cast<double>(beats_transferred_) * 64.0 /
                             static_cast<double>(cycle_);
  }

 private:
  struct Burst {
    unsigned requester;
    unsigned beats;
  };

  fpga::MemoryChannelConfig cfg_;
  RingBuffer<Burst> queue_;
  bool in_flight_ = false;
  Burst current_{0, 0};
  std::uint64_t finish_cycle_ = 0;
  std::uint64_t done_mask_ = 0;  ///< per-requester completion flags
  std::uint64_t cycle_ = 0;
  std::uint64_t beats_transferred_ = 0;
  std::uint64_t bursts_served_ = 0;
};

inline fpga::KernelSimResult simulate_kernel_stepped(
    const fpga::KernelSimConfig& cfg,
    const fpga::ProducerFactory& make_producer) {
  struct WorkItem {
    std::unique_ptr<fpga::ProducerModel> producer;
    std::uint64_t produced = 0;    ///< outputs pushed into the FIFO
    unsigned ii_countdown = 0;     ///< cycles until the next initiation
    bool pending_emit = false;     ///< accepted output waiting for space
    float pending_value = 0.0f;
    RingBuffer<float> fifo;
    unsigned floats_in_beat = 0;   ///< packer fill (0..15)
    unsigned beats_collected = 0;  ///< beats in the burst buffer
    bool burst_pending = false;    ///< one outstanding burst
    explicit WorkItem(std::size_t depth) : fifo(depth) {}
  };
  constexpr unsigned kFloatsPerBeat = 16;

  std::vector<WorkItem> wis;
  wis.reserve(cfg.work_items);
  for (unsigned w = 0; w < cfg.work_items; ++w) {
    wis.emplace_back(cfg.stream_depth);
    wis.back().producer = make_producer(w);
  }
  std::vector<SteppedChannel> channels;
  for (unsigned c = 0; c < cfg.memory_channels; ++c) {
    channels.emplace_back(cfg.channel);
  }

  fpga::KernelSimResult result;
  if (cfg.trace != nullptr) {
    cfg.trace->work_items.assign(cfg.work_items, std::string());
    cfg.trace->channel.clear();
  }
  const std::uint64_t quota = cfg.outputs_per_work_item;

  std::uint64_t cycle = 0;
  for (;;) {
    bool all_done = true;
    for (std::size_t wid = 0; wid < wis.size(); ++wid) {
      WorkItem& wi = wis[wid];
      SteppedChannel& channel = channels[wid % cfg.memory_channels];
      char state = '.';
      if (wi.produced < quota || wi.pending_emit) {
        all_done = false;
        if (wi.pending_emit) {
          state = 'S';
          if (wi.fifo.try_push(wi.pending_value)) {
            wi.pending_emit = false;
            ++wi.produced;
          } else {
            ++result.compute_stall_cycles;
          }
        } else if (wi.ii_countdown == 0) {
          state = 'C';
          ++result.attempts;
          float value = 0.0f;
          if (wi.producer->produce(&value)) {
            if (cfg.record_outputs) result.outputs_data.push_back(value);
            if (wi.fifo.try_push(value)) {
              ++wi.produced;
            } else {
              wi.pending_emit = true;
              wi.pending_value = value;
              ++result.compute_stall_cycles;
            }
          }
          wi.ii_countdown = cfg.initiation_interval - 1;
        } else {
          state = '-';
          --wi.ii_countdown;
        }
      }
      if (cfg.trace != nullptr) cfg.trace->work_items[wid].push_back(state);

      if (wi.burst_pending &&
          channel.burst_done(static_cast<unsigned>(wid))) {
        wi.burst_pending = false;
      }
      const bool buffer_space =
          cfg.transfer_double_buffered
              ? (wi.beats_collected < cfg.burst_beats ||
                 (!wi.burst_pending &&
                  wi.beats_collected < 2 * cfg.burst_beats))
              : (!wi.burst_pending && wi.beats_collected < cfg.burst_beats);
      if (buffer_space && !wi.fifo.empty()) {
        (void)wi.fifo.pop();
        if (++wi.floats_in_beat == kFloatsPerBeat) {
          wi.floats_in_beat = 0;
          ++wi.beats_collected;
        }
      }
      const bool wi_done =
          wi.produced >= quota && !wi.pending_emit && wi.fifo.empty();
      if (wi_done && wi.floats_in_beat > 0) {
        wi.floats_in_beat = 0;
        ++wi.beats_collected;
      }
      if (!wi.burst_pending) {
        unsigned beats = 0;
        if (wi.beats_collected >= cfg.burst_beats) {
          beats = cfg.burst_beats;
        } else if (wi_done && wi.beats_collected > 0) {
          beats = wi.beats_collected;
        }
        if (beats > 0) {
          channel.request_burst(static_cast<unsigned>(wid), beats);
          wi.beats_collected -= beats;
          wi.burst_pending = true;
        }
      }
      if (!wi_done || wi.beats_collected > 0 || wi.burst_pending) {
        all_done = false;
      }
    }

    bool channels_idle = true;
    for (auto& ch : channels) {
      ch.tick();
      if (!ch.idle()) channels_idle = false;
    }
    if (cfg.trace != nullptr) {
      const int req = channels[0].active_requester();
      cfg.trace->channel.push_back(
          req < 0 ? '.' : static_cast<char>('0' + req % 10));
    }
    ++cycle;
    if (all_done && channels_idle) break;
    DWI_REQUIRE(cycle < (std::uint64_t{1} << 40), "runaway simulation");
  }

  result.cycles = cycle + cfg.pipeline_latency;
  for (const auto& wi : wis) result.outputs += wi.produced;
  for (const auto& ch : channels) {
    result.bursts += ch.bursts_served();
    result.channel_bytes_per_cycle += ch.bytes_per_cycle();
  }
  return result;
}

}  // namespace dwi::testing
