// TunedConfig: the serializable winner the autotuner emits per
// (workload, device) pair — every knob the search space covers, the
// modeled objective it achieved, and the provenance (seed, feasibility)
// needed to reproduce or audit the search.
//
// The wire format is deliberately boring: one `key=value` per line,
// first line a format tag. It round-trips exactly (tests/test_tune.cpp)
// and diffs cleanly when a committed tuned config changes in review.
#pragma once

#include <cstdint>
#include <string>

namespace dwi::tune {

struct TunedConfig {
  /// Workload the config was tuned for ("table3:Config1",
  /// "fig5:CPU:Config1", ...).
  std::string workload;
  /// Device the objective was modeled on ("adm-pcie-7v3",
  /// "cpu-haswell", ...).
  std::string device;
  /// Search seed the winner was found under (same seed → same config).
  std::uint64_t seed = 0;

  // --- FPGA design point (table3 workloads) ---------------------------
  unsigned work_items = 0;
  std::size_t stream_depth = 64;
  unsigned burst_beats = 16;
  /// Host-side SIMD block width of the GammaWorkItem tape.
  std::uint32_t batch_iterations = 2048;

  // --- SIMT NDRange (fig5 workloads) ----------------------------------
  std::uint64_t global_size = 0;
  unsigned local_size = 0;

  /// Objective value of this point: modeled throughput in units/second
  /// (samples/s for table3, runs/s for fig5).
  double modeled_throughput = 0.0;
  /// Within the modeled device's resource budget (always true for
  /// workloads without a resource model).
  bool feasible = false;
};

/// Serialize as "dwi-tuned-config v1\n" + one key=value per line.
std::string format_tuned_config(const TunedConfig& cfg);

/// Parse the format_tuned_config output; throws dwi::Error on a
/// malformed header, line, or value. Unknown keys throw too — a config
/// from a newer writer must not be silently half-read.
TunedConfig parse_tuned_config(const std::string& text);

}  // namespace dwi::tune
