#include "fpga/memory_channel.h"

#include <algorithm>

namespace dwi::fpga {

MemoryChannel::MemoryChannel(MemoryChannelConfig cfg)
    : cfg_(cfg), queue_(cfg.queue_depth) {}

bool MemoryChannel::request_burst(unsigned requester, unsigned beats) {
  DWI_REQUIRE(beats >= 1, "empty burst");
  DWI_REQUIRE(requester < 64, "requester id out of range");
  return queue_.try_push(Burst{requester, beats});
}

double MemoryChannel::bytes_per_cycle() const {
  if (cycle_ == 0) return 0.0;
  return static_cast<double>(beats_transferred_) * 64.0 /
         static_cast<double>(cycle_);
}

BurstTimeline::BurstTimeline(MemoryChannelConfig cfg) : cfg_(cfg) {
  DWI_REQUIRE(cfg.queue_depth >= 1, "channel queue depth must be positive");
  DWI_REQUIRE(cfg.refresh_interval_cycles == 0 ||
                  cfg.refresh_cycles < cfg.refresh_interval_cycles,
              "refresh must leave the channel some cycles");
}

std::optional<BurstTimeline::Slot> BurstTimeline::request(
    std::uint64_t cycle, unsigned beats) {
  DWI_REQUIRE(beats >= 1, "empty burst");
  while (!queued_.empty() && queued_.front() <= cycle) queued_.pop_front();
  if (queued_.size() >= cfg_.queue_depth) return std::nullopt;
  // Dequeue on the first tick after the previous burst that is not
  // inside a refresh window [k·R, k·R + tRFC).
  const std::uint64_t interval = cfg_.refresh_interval_cycles;
  std::uint64_t start = std::max(cycle, free_) + 1;
  if (interval != 0 && start >= interval &&
      start % interval < cfg_.refresh_cycles) {
    start += cfg_.refresh_cycles - start % interval;
  }
  // Every refresh boundary reached while in flight stretches the burst.
  std::uint64_t finish = start + cfg_.turnaround_cycles + beats - 1;
  if (interval != 0) {
    for (std::uint64_t b = (start / interval + 1) * interval; b <= finish;
         b += interval) {
      finish += cfg_.refresh_cycles;
    }
  }
  queued_.push_back(start);
  free_ = finish;
  ++bursts_;
  beats_ += beats;
  return Slot{start, finish};
}

}  // namespace dwi::fpga
