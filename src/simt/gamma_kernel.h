// The fixed-architecture (NDRange .cl) version of the paper's gamma
// kernel, executed on the lockstep engine: each lane is one work-item
// looping until it has produced its quota of validated gamma RNs.
//
// This is the counterpart of the FPGA kernel in src/core: same
// numerics (shared rng primitives), but the control flow runs under
// divergence masks so the engine can charge the hardware-partition
// costs that Fig 2b illustrates. Functional output is bit-faithful to
// the scalar sampler, so the same statistical validation applies.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/configs.h"
#include "rng/gamma.h"
#include "simt/executor.h"
#include "simt/platform.h"

namespace dwi::simt {

/// Result of simulating one partition of the gamma kernel.
struct GammaKernelResult {
  SlotStats stats;
  std::uint64_t iterations = 0;       ///< MAINLOOP trips of the partition
  std::uint64_t attempts = 0;         ///< lane attempts executed
  std::uint64_t accepted = 0;         ///< validated gamma RNs
  std::vector<float> outputs;         ///< all lanes' outputs, interleaved

  double rejection_rate() const {
    return attempts == 0
               ? 0.0
               : 1.0 - static_cast<double>(accepted) /
                           static_cast<double>(attempts);
  }
};

/// Execute one `width`-lane partition until every lane has produced
/// `quota_per_lane` outputs.
///
/// `transform` selects the uniform-to-normal stage (the "CUDA-style" vs
/// "FPGA-style" ICDF rows of Table III differ only here); the
/// Mersenne-Twister parameters and the state-spill penalty come from
/// `config` + `platform`. `seed` decorrelates partitions.
/// Lanes draw from per-lane mixed MT seeds (the paper's scheme).
/// `observer` (optional) receives every executed region's (mask,
/// parent, ops) — the Fig 2 visualization hook.
GammaKernelResult run_gamma_partition(
    const PlatformModel& platform, const rng::AppConfig& config,
    rng::NormalTransform transform, float sector_variance,
    std::uint32_t quota_per_lane, std::uint32_t seed,
    LockstepPartition::RegionObserver observer = nullptr);

/// One-time per-work-item setup cost (PRNG seeding of all twisters),
/// in platform slots — used by the Fig 5b global-size model.
double gamma_kernel_init_slots(const PlatformModel& platform,
                               const rng::AppConfig& config);

}  // namespace dwi::simt
