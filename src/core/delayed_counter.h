// Listing 2's workaround for dynamically-modified loop exit conditions
// in an II=1 pipeline.
//
// Problem: MAINLOOP's exit depends on `counter`, which is incremented
// inside a data-dependent branch of the *same* iteration. The exit
// comparison therefore depends on the previous iteration's result — a
// loop-carried dependency whose latency (increment + compare) exceeds
// one cycle, forcing the scheduler to II > 1.
//
// Workaround: compare against a *delayed* copy of the counter, shifted
// through a completely partitioned register array `prevCounter` of
// length breakId+1 (`UpdateRegUI` in the paper). The comparison then
// reads a register written `breakId+1` iterations ago, breaking the
// tight recurrence; the pipeline reaches II = 1 at the cost of up to
// breakId+1 extra (harmless) loop iterations, because the guarded
// output write (`counter < limitMain`) never emits extra values. The
// paper finds breakId = 0 — a delay of one cycle — sufficient.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace dwi::core {

class DelayedCounter {
 public:
  /// `break_id`: index into the delay register array (delay in
  /// iterations is break_id + 1).
  explicit DelayedCounter(unsigned break_id = 0);

  /// Listing 2's `UpdateRegUI`: shift the current counter into the
  /// delay registers. Call exactly once at the top of every iteration.
  /// Inline: this runs once per MAINLOOP iteration in the host
  /// simulation's hottest loop, and the common break_id = 0 case is a
  /// single store.
  void update_registers() {
    for (std::size_t j = prev_.size(); j-- > 1;) prev_[j] = prev_[j - 1];
    prev_[0] = counter_;
  }

  /// Increment the live counter (inside the validated-output branch).
  void increment() { ++counter_; }

  /// The delayed value `prevCounter[breakId]` used in the loop exit
  /// comparison.
  std::uint32_t delayed_value() const { return prev_[break_id_]; }

  /// The live counter (used in the guarded write condition).
  std::uint32_t value() const { return counter_; }

  unsigned break_id() const { return break_id_; }

  /// Closed-form replay of `count` iterations of the Listing 2 loop
  /// when every increment's guard is known to pass: iteration i ran
  /// update_registers() and then incremented iff bit first + i of the
  /// bit array `ok` is set; `total_incremented` is their count. The
  /// resulting state is bit-identical to the explicit loop. The batch
  /// tape fill uses this to skip the per-iteration shift dance.
  void advance_bulk(const std::uint64_t* ok, std::size_t first,
                    std::size_t count, std::uint32_t total_incremented) {
    const std::size_t fresh = std::min(count, prev_.size());
    // Registers older than the run move down by `count` places.
    for (std::size_t j = prev_.size(); j-- > fresh;) {
      prev_[j] = prev_[j - count];
    }
    counter_ += total_incremented;
    std::uint32_t enter = counter_;
    for (std::size_t j = 0; j < fresh; ++j) {
      const std::size_t i = first + count - 1 - j;
      enter -= static_cast<std::uint32_t>((ok[i / 64] >> (i % 64)) & 1);
      prev_[j] = enter;
    }
  }

  /// With the live counter at or past `limit` and no further
  /// increments: the update_registers() calls until delayed_value()
  /// reaches `limit`, between 1 and break_id + 1 (the registers may
  /// already hold it in a younger slot).
  unsigned iterations_until(std::uint32_t limit) const {
    unsigned t = 1;
    while (t <= break_id_ && prev_[break_id_ - t] < limit) ++t;
    return t;
  }

  void reset() {
    counter_ = 0;
    for (auto& p : prev_) p = 0;
  }

 private:
  unsigned break_id_;
  std::uint32_t counter_ = 0;
  std::vector<std::uint32_t> prev_;  ///< fully partitioned in HLS
};

/// Scheduling model: the II Vivado HLS achieves for MAINLOOP given the
/// latency of the counter-increment + compare chain and the delay the
/// workaround provides. Without the workaround (delay 0) the recurrence
/// forces II = chain latency; each register of delay recovers one
/// cycle, down to the II=1 floor. Used by the ablation bench
/// (bench/ablation_counter) and the FPGA timing simulation.
unsigned achieved_initiation_interval(unsigned counter_chain_latency,
                                      unsigned delay_iterations);

}  // namespace dwi::core
