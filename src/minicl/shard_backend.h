// Shard-owned simulated devices: the device-backend seam between the
// serving cluster (serve/cluster.h) and the repo's simulated
// accelerators.
//
// `default_devices()` hands out process-wide singletons — fine for the
// paper's single-queue experiments, wrong for a sharded server where
// every shard must own its accelerator exclusively (its launch cache
// and modeled timeline are per-shard state). A ShardBackend constructs
// a *fresh* device instance per shard — the fpgasim FPGA or one of the
// SIMT fixed architectures — and keeps the shard's modeled busy-time
// account: every admitted request is mirrored as a KernelLaunch on the
// shard's device, so the cluster can report per-device utilization and
// a modeled aggregate capacity (the same modeled-timeline convention
// the Fig 8/9 experiments use; nothing here runs in host time).
//
// Results never flow through the device model — responses are computed
// on the host from (server_seed, request id) substreams precisely so
// that WHICH device/shard served a request cannot move a bit of the
// response. The backend models when the work would finish on real
// silicon, not what it produces.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "minicl/devices.h"

namespace dwi::minicl {

/// Which simulated accelerator a shard owns.
enum class BackendKind { kFpga, kCpu, kGpu, kPhi };

const char* to_string(BackendKind kind);

class ShardBackend {
 public:
  /// Constructs a fresh device of `kind`; `ordinal` only names the
  /// instance (e.g. "fpgasim:2").
  ShardBackend(BackendKind kind, unsigned ordinal);

  ShardBackend(const ShardBackend&) = delete;
  ShardBackend& operator=(const ShardBackend&) = delete;

  BackendKind kind() const { return kind_; }
  /// "<kind>:<ordinal> (<device name>)".
  const std::string& name() const { return name_; }

  /// Mirror one admitted request onto the modeled timeline: executes
  /// the equivalent KernelLaunch on this shard's device (memoized per
  /// launch shape) and extends the busy account. Thread-safe; called
  /// by the cluster router at admission.
  void account(std::uint64_t total_outputs, float sector_variance);

  /// Total modeled kernel seconds this shard's device has accumulated.
  double modeled_busy_seconds() const;
  /// Number of launches accounted so far.
  std::uint64_t modeled_launches() const;

 private:
  BackendKind kind_;
  std::string name_;
  std::shared_ptr<Device> device_;
  mutable std::mutex mutex_;
  double busy_seconds_ = 0.0;
  std::uint64_t launches_ = 0;
};

/// Factory used by the serving cluster to bind shard `ordinal` to its
/// own simulated device.
std::unique_ptr<ShardBackend> make_shard_backend(BackendKind kind,
                                                 unsigned ordinal);

}  // namespace dwi::minicl
