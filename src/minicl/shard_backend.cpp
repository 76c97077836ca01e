#include "minicl/shard_backend.h"

#include <algorithm>

#include "common/error.h"
#include "simt/platform.h"

namespace dwi::minicl {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kFpga: return "fpgasim";
    case BackendKind::kCpu: return "simt-cpu";
    case BackendKind::kGpu: return "simt-gpu";
    case BackendKind::kPhi: return "simt-phi";
  }
  return "?";
}

namespace {

std::shared_ptr<Device> make_device(BackendKind kind) {
  // The platform models are static singletons (simt/platform.h), so a
  // SimtDevice holding a reference into them is safe for any lifetime.
  switch (kind) {
    case BackendKind::kCpu:
      return std::make_shared<SimtDevice>(simt::cpu_haswell(),
                                          cpu_base_dynamic_watts());
    case BackendKind::kGpu:
      return std::make_shared<SimtDevice>(simt::gpu_tesla_k80(),
                                          gpu_base_dynamic_watts());
    case BackendKind::kPhi:
      return std::make_shared<SimtDevice>(simt::phi_7120p(),
                                          phi_base_dynamic_watts());
    case BackendKind::kFpga:
      return std::make_shared<FpgaDevice>(fpga_base_dynamic_watts());
  }
  throw Error("shard backend: unknown device kind");
}

}  // namespace

ShardBackend::ShardBackend(BackendKind kind, unsigned ordinal)
    : kind_(kind), device_(make_device(kind)) {
  name_ = std::string(to_string(kind)) + ":" + std::to_string(ordinal) +
          " (" + device_->name() + ")";
}

void ShardBackend::account(std::uint64_t total_outputs,
                           float sector_variance) {
  KernelLaunch launch;
  // The SIMT estimator needs at least one output per work-item, so
  // small requests are modeled at the NDRange floor (the FPGA path has
  // its own scenario-count guard).
  launch.total_outputs = std::max(total_outputs, launch.global_size);
  launch.sector_variance = sector_variance;
  std::lock_guard lock(mutex_);
  // execute() memoizes by launch shape, so repeated request shapes cost
  // a map lookup, not a simulation.
  const LaunchProfile profile = device_->execute(launch);
  busy_seconds_ += profile.kernel_seconds;
  ++launches_;
}

double ShardBackend::modeled_busy_seconds() const {
  std::lock_guard lock(mutex_);
  return busy_seconds_;
}

std::uint64_t ShardBackend::modeled_launches() const {
  std::lock_guard lock(mutex_);
  return launches_;
}

std::unique_ptr<ShardBackend> make_shard_backend(BackendKind kind,
                                                 unsigned ordinal) {
  return std::make_unique<ShardBackend>(kind, ordinal);
}

}  // namespace dwi::minicl
