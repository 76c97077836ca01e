#include "core/decoupled_work_items.h"

#include <memory>
#include <span>
#include <string>

#include "common/error.h"
#include "exec/parallel_for.h"

namespace dwi::core {

std::vector<float> DecoupledResult::to_floats() const {
  std::vector<float> out;
  out.reserve(total_floats);
  for (const MemoryWord& w : device_buffer) {
    for (unsigned lane = 0; lane < 16 && out.size() < total_floats; ++lane) {
      out.push_back(unpack_g512(w, lane));
    }
  }
  return out;
}

std::vector<float> DecoupledResult::work_item_slice(
    unsigned wid, std::uint64_t floats_per_wi) const {
  DWI_REQUIRE(floats_per_wi % 16 == 0, "slice must be beat-aligned");
  const std::uint64_t words_per_wi = floats_per_wi / 16;
  const std::uint64_t begin = wid * words_per_wi;
  DWI_REQUIRE(begin + words_per_wi <= device_buffer.size(),
              "work-item slice out of range");
  std::vector<float> out;
  out.reserve(floats_per_wi);
  for (std::uint64_t w = begin; w < begin + words_per_wi; ++w) {
    for (unsigned lane = 0; lane < 16; ++lane) {
      out.push_back(unpack_g512(device_buffer[w], lane));
    }
  }
  return out;
}

DecoupledResult run_decoupled_work_items(const DecoupledConfig& cfg,
                                         const ComputeFn& compute) {
  DWI_REQUIRE(cfg.work_items >= 1 && cfg.work_items <= 64,
              "work-item count out of range");
  DWI_REQUIRE(cfg.floats_per_work_item % 16 == 0,
              "per-work-item length must be a multiple of 16 floats");

  const std::uint64_t floats = cfg.floats_per_work_item;
  const std::uint64_t words_per_wi = floats / 16;

  DecoupledResult result;
  result.total_floats = floats * cfg.work_items;
  result.device_buffer.assign(words_per_wi * cfg.work_items, MemoryWord{});

  // Each task writes only its own slice of the device buffer.
  const std::span<MemoryWord> device(result.device_buffer);
  exec::parallel_for(cfg.work_items, [&](std::size_t w) {
    const auto wid = static_cast<unsigned>(w);
    TransferUnit out(device, w * words_per_wi, floats);
    compute(wid, out, floats);
    DWI_REQUIRE(out.floats_written() == floats,
                "work-item " + std::to_string(wid) + " wrote " +
                    std::to_string(out.floats_written()) + " of its " +
                    std::to_string(floats) + " floats");
  });
  return result;
}

DecoupledResult run_gamma_task(
    const DecoupledConfig& cfg,
    const std::function<GammaWorkItemConfig(unsigned wid)>& make_config) {
  std::vector<std::unique_ptr<GammaWorkItem>> work_items;
  work_items.reserve(cfg.work_items);
  for (unsigned wid = 0; wid < cfg.work_items; ++wid) {
    work_items.push_back(std::make_unique<GammaWorkItem>(make_config(wid)));
    DWI_REQUIRE(work_items.back()->total_quota() == cfg.floats_per_work_item,
                "work-item quota must match the transfer slice");
  }
  // A work-item whose limitMax ends its sector before the quota returns
  // short, which run_decoupled_work_items reports.
  return run_decoupled_work_items(
      cfg, [&work_items](unsigned wid, TransferUnit& out,
                         std::uint64_t total_floats) {
        GammaWorkItem& wi = *work_items[wid];
        while (out.floats_written() < total_floats && !wi.finished()) {
          float value = 0.0f;
          if (wi.produce(&value)) out.write(value);
        }
      });
}

std::vector<float> combine_buffers_at_host(
    const std::vector<std::vector<MemoryWord>>& per_wi_buffers,
    std::uint64_t floats_per_wi) {
  DWI_REQUIRE(!per_wi_buffers.empty(), "no buffers to combine");
  DWI_REQUIRE(floats_per_wi % 16 == 0, "slice must be beat-aligned");
  std::vector<float> host(per_wi_buffers.size() * floats_per_wi);
  // N read requests, each with destination offset wid · L/N (§III-E1).
  for (std::size_t wid = 0; wid < per_wi_buffers.size(); ++wid) {
    const auto& buf = per_wi_buffers[wid];
    DWI_REQUIRE(buf.size() * 16 >= floats_per_wi,
                "device buffer shorter than the slice");
    std::uint64_t out = wid * floats_per_wi;
    for (std::uint64_t w = 0; w < floats_per_wi / 16; ++w) {
      for (unsigned lane = 0; lane < 16; ++lane) {
        host[out++] = unpack_g512(buf[w], lane);
      }
    }
  }
  return host;
}

}  // namespace dwi::core
