// Model of the single device-global-memory channel the decoupled
// work-items share (Fig 3: transfers are serialized on one channel and
// interleave with computation).
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

#include <algorithm>
#include <cstdint>

#include "common/error.h"

namespace dwi::fpga {

struct MemoryChannelConfig {
  unsigned turnaround_cycles = 41;  ///< per-burst fixed overhead (calibrated)
};

/// The channel in closed form, for event-driven simulation. The queue
/// is FIFO, so a burst's dequeue and completion ticks follow from the
/// bursts requested before it and are returned at request time. The
/// channel ticks once per clock cycle: a request made in cycle c
/// (before that cycle's tick) is dequeued at tick c + 1 at the
/// earliest, busies the channel from that tick on, and completes at
/// tick start + turnaround + beats - 1; its requester sees the
/// completion in cycle finish. Requests must come in nondecreasing
/// cycle order. tests/kernel_sim_oracle.h holds the same channel
/// stepped one tick at a time.
class BurstTimeline {
 public:
  struct Slot {
    std::uint64_t start;   ///< dequeue tick (first busy tick)
    std::uint64_t finish;  ///< completing tick
  };

  explicit BurstTimeline(MemoryChannelConfig cfg) : cfg_(cfg) {}

  /// Queue a burst of `beats` full-width beats in cycle `cycle`.
  Slot request(std::uint64_t cycle, unsigned beats) {
    DWI_REQUIRE(beats >= 1, "empty burst");
    const std::uint64_t start = std::max(cycle, free_) + 1;
    free_ = start + cfg_.turnaround_cycles + beats - 1;
    ++bursts_;
    beats_ += beats;
    return Slot{start, free_};
  }

  std::uint64_t bursts_served() const { return bursts_; }
  std::uint64_t beats_transferred() const { return beats_; }

 private:
  MemoryChannelConfig cfg_;
  std::uint64_t free_ = 0;  ///< completing tick of the latest burst
  std::uint64_t bursts_ = 0;
  std::uint64_t beats_ = 0;
};

}  // namespace dwi::fpga
