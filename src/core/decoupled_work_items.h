// Listing 1: DecoupledWorkItems — the paper's central design pattern.
//
// N OpenCL work-items are instantiated as N independent pipelines
// inside a single Task, each split into a compute function (GammaRNG)
// and a Transfer function connected by an hls::stream, all scheduled
// concurrently by #pragma HLS DATAFLOW. A work-item's data-dependent
// branches (rejections) therefore never stall any other work-item —
// Fig 2c's "hardware partitions of one work-item each".
//
// This is the functional execution of that structure. Each work-item's
// compute → transfer pair runs as one task on the exec pool: the
// compute writes straight into its TransferUnit, which packs the
// values into the shared device buffer at wid-based offsets (§III-E2
// device-level combining). No FIFO or thread per process is needed:
// the device buffer depends only on each work-item's value sequence,
// and fpga::simulate_kernel (KernelSim) models the concurrency — FIFO
// depth, backpressure, LTRANSF bursts — cycle by cycle. The matching
// host-level combining strategy (§III-E1: N device buffers gathered
// into one host buffer by N offset reads) is also provided for the
// ablation bench.
//
// The pattern is generic: any ProducerFactory-compatible compute
// function can replace GammaRNG (§V: "can be easily reused or
// customized to any application") — see examples/custom_rejection_kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/gamma_work_item.h"
#include "core/transfer_unit.h"

namespace dwi::core {

/// A compute process: writes exactly `total_floats` validated values to
/// its Transfer unit, then returns. GammaWorkItem provides the paper's
/// kernel; custom applications provide their own. Work-items may run
/// concurrently, so a compute may share no mutable state across wids.
using ComputeFn = std::function<void(unsigned wid, TransferUnit& out,
                                     std::uint64_t total_floats)>;

struct DecoupledConfig {
  unsigned work_items = 6;
  std::uint64_t floats_per_work_item = 16 * 1024;
};

/// Result of one Task invocation.
struct DecoupledResult {
  /// The device global-memory buffer, one contiguous slice per
  /// work-item (device-level combining: a single buffer).
  std::vector<MemoryWord> device_buffer;
  std::uint64_t total_floats = 0;

  /// Unpack everything into floats, in work-item-major order.
  std::vector<float> to_floats() const;
  /// Unpack one work-item's slice.
  std::vector<float> work_item_slice(unsigned wid, std::uint64_t floats_per_wi)
      const;
};

/// Run the DecoupledWorkItems Task: one exec-pool task per work-item.
/// Throws dwi::Error when a compute throws it, writes past its slice,
/// or returns before writing exactly `floats_per_work_item` floats.
DecoupledResult run_decoupled_work_items(const DecoupledConfig& cfg,
                                         const ComputeFn& compute);

/// Convenience: the paper's kernel. Builds one GammaWorkItem per wid
/// from `make_config(wid)` and runs the Task.
DecoupledResult run_gamma_task(
    const DecoupledConfig& cfg,
    const std::function<GammaWorkItemConfig(unsigned wid)>& make_config);

/// §III-E1: host-level combining — each work-item writes its own device
/// buffer; the host enqueues N reads, each landing at offset
/// wid·L/N of one host buffer. Returns the combined host buffer; used
/// by the ablation bench to show functional equivalence of the two
/// strategies.
std::vector<float> combine_buffers_at_host(
    const std::vector<std::vector<MemoryWord>>& per_wi_buffers,
    std::uint64_t floats_per_wi);

}  // namespace dwi::core
