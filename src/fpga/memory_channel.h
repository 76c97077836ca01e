// Cycle-level model of the single device-global-memory channel the
// decoupled work-items share (Fig 3: transfers are serialized on one
// channel and interleave with computation).
//
// A burst of B beats (one beat = the full 512-bit interface = 16
// floats) occupies the channel for `turnaround + B` cycles: the
// turnaround covers AXI address handshake, datamover setup and DDR
// bank overhead of the SDAccel 2015.4 memory subsystem. The constant
// is calibrated so the transfers-only bandwidth matches the paper's
// measured 3.58–3.94 GB/s (§IV-E, Fig 7) against the 12.8 GB/s raw
// interface peak — the paper itself notes that "further customizations
// of the memory controller inside the tool would improve the
// performance".
//
// Requests queue FIFO; the channel serves one burst at a time, which
// is exactly what shifts the work-items apart in time in Fig 3.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/error.h"
#include "common/ring_buffer.h"

namespace dwi::fpga {

struct MemoryChannelConfig {
  unsigned turnaround_cycles = 41;  ///< per-burst fixed overhead (calibrated)
  std::size_t queue_depth = 64;     ///< outstanding burst requests
  /// Optional DRAM refresh modeling (off by default: the calibrated
  /// turnaround already absorbs the time-averaged refresh cost). When
  /// enabled, the channel blocks for `refresh_cycles` every
  /// `refresh_interval_cycles` (DDR3 at 200 MHz: tREFI ≈ 7.8 µs = 1560
  /// cycles, tRFC ≈ 350 ns = 70 cycles → ~4.3 % of raw bandwidth —
  /// one identifiable slice of the 12.8 → 3.9 GB/s gap).
  unsigned refresh_interval_cycles = 0;  ///< 0 = disabled
  unsigned refresh_cycles = 70;
};

class MemoryChannel {
 public:
  explicit MemoryChannel(MemoryChannelConfig cfg = {});

  /// Enqueue a burst of `beats` full-width beats for `requester`.
  /// Returns false when the request queue is full (caller retries).
  bool request_burst(unsigned requester, unsigned beats);

  /// Advance one clock cycle. Inline: the kernel cycle loop calls this
  /// (and the queries below) once per simulated cycle per channel.
  void tick() {
    ++cycle_;
    // DRAM refresh: the channel is dead for refresh_cycles at every
    // interval boundary; an in-flight burst is stretched by pushing
    // its finish time out.
    if (cfg_.refresh_interval_cycles != 0 &&
        cycle_ % cfg_.refresh_interval_cycles == 0) {
      refresh_until_ = cycle_ + cfg_.refresh_cycles;
      if (in_flight_) finish_cycle_ += cfg_.refresh_cycles;
    }
    if (cycle_ < refresh_until_) {
      if (in_flight_) ++busy_cycles_;
      return;
    }
    if (!in_flight_ && !queue_.empty()) {
      current_ = queue_.pop();
      in_flight_ = true;
      // The dequeuing tick is the first busy cycle, so the burst
      // completes after turnaround + beats ticks in total.
      finish_cycle_ = cycle_ + cfg_.turnaround_cycles + current_.beats - 1;
    }
    if (in_flight_) {
      ++busy_cycles_;
      if (cycle_ >= finish_cycle_) {
        beats_transferred_ += current_.beats;
        data_cycles_ += current_.beats;
        ++bursts_served_;
        done_mask_ |= std::uint64_t{1} << current_.requester;
        in_flight_ = false;
      }
    }
  }

  /// True when request_burst would currently be accepted (queue not
  /// full).
  bool can_accept() const { return !queue_.full(); }

  /// True when `requester`'s burst finished this or an earlier cycle
  /// and has not been consumed yet.
  bool burst_done(unsigned requester) {
    const std::uint64_t bit = std::uint64_t{1} << requester;
    if (done_mask_ & bit) {
      done_mask_ &= ~bit;
      return true;
    }
    return false;
  }

  /// True when no burst is in flight or queued.
  bool idle() const { return !in_flight_ && queue_.empty(); }

  /// Requester id of the burst currently occupying the channel, or -1
  /// when idle — the Fig 3 schedule-visualization hook.
  int active_requester() const {
    return in_flight_ ? static_cast<int>(current_.requester) : -1;
  }

  // --- statistics ---------------------------------------------------------
  std::uint64_t cycles() const { return cycle_; }
  std::uint64_t busy_cycles() const { return busy_cycles_; }
  std::uint64_t data_cycles() const { return data_cycles_; }
  std::uint64_t beats_transferred() const { return beats_transferred_; }
  std::uint64_t bursts_served() const { return bursts_served_; }

  /// Achieved bandwidth in bytes per cycle (×clock = bytes/s).
  double bytes_per_cycle() const;

 private:
  struct Burst {
    unsigned requester;
    unsigned beats;
  };

  MemoryChannelConfig cfg_;
  RingBuffer<Burst> queue_;
  bool in_flight_ = false;
  Burst current_{0, 0};
  std::uint64_t finish_cycle_ = 0;
  std::uint64_t refresh_until_ = 0;
  std::uint64_t done_mask_ = 0;  ///< per-requester completion flags

  std::uint64_t cycle_ = 0;
  std::uint64_t busy_cycles_ = 0;
  std::uint64_t data_cycles_ = 0;
  std::uint64_t beats_transferred_ = 0;
  std::uint64_t bursts_served_ = 0;
};

/// The same channel in closed form, for event-driven simulation. The
/// queue is FIFO, so a burst's dequeue and completion ticks follow from
/// the bursts accepted before it and can be returned at request time.
/// Tick t is the t-th tick(): a request made in cycle c (before that
/// cycle's tick) can be dequeued at tick c + 1 at the earliest, and a
/// burst finishing at tick f is seen by burst_done() in cycle f.
/// Requests must come in nondecreasing cycle order.
class BurstTimeline {
 public:
  struct Slot {
    std::uint64_t start;   ///< dequeue tick (first busy tick)
    std::uint64_t finish;  ///< completing tick
  };

  explicit BurstTimeline(MemoryChannelConfig cfg);

  /// request_burst() in cycle `cycle`; nullopt when the queue is full.
  std::optional<Slot> request(std::uint64_t cycle, unsigned beats);

  std::uint64_t bursts_served() const { return bursts_; }
  std::uint64_t beats_transferred() const { return beats_; }

 private:
  MemoryChannelConfig cfg_;
  std::deque<std::uint64_t> queued_;  ///< start ticks still in the queue
  std::uint64_t free_ = 0;            ///< last tick of the latest burst
  std::uint64_t bursts_ = 0;
  std::uint64_t beats_ = 0;
};

}  // namespace dwi::fpga
