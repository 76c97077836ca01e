// Resource-aware throughput autotuner.
//
// One search skeleton — seeded coordinate descent over a small set of
// discrete knobs — applied to the repo's two modeled workload families:
//
//   * table3 (FPGA): joint {work-items, stream depth, burst beats,
//     batch_iterations} against the cycle-level kernel
//     simulation. Every candidate design point is first priced by the
//     Table II resource model (fpga::estimate_utilization with a
//     DesignPoint); points whose slices/DSP/BRAM exceed the modeled
//     device's budget are PRUNED — counted, recorded in the
//     trajectory, never simulated. This reproduces §IV-C's
//     "grow until place-and-route fails" as a feasibility constraint
//     inside a joint search instead of a one-knob sweep.
//   * fig5 (SIMT): {local size, global size} against the
//     fixed-architecture runtime estimator. Feasibility = the OpenCL
//     NDRange rule (local divides global).
//
// Both objectives are modeled, not timed, so CI can gate on them
// without timing noise. Serving has no tuner: its queue and batch
// bounds are the explicit ServeConfig constants.
//
// Determinism: the search is a pure function of (workload, options).
// The only randomness is a splitmix64-seeded knob visiting order; no
// wall-clock, no global RNG. Same seed → same trajectory → same
// TunedConfig (tests/test_tune.cpp pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/device.h"
#include "rng/configs.h"
#include "simt/platform.h"
#include "tune/tuned_config.h"

namespace dwi::tune {

struct TunerOptions {
  /// Seed of the knob-order shuffle. Same seed → same search.
  std::uint64_t seed = 1;
  /// Hard cap on objective evaluations (pruned points are free — the
  /// resource model is why the budget stretches).
  unsigned budget = 96;
  /// Coordinate-descent sweeps over the knob set.
  unsigned passes = 2;
  /// FPGA probe scale: simulate 1/(scale·work_items) of the paper
  /// workload's scenarios per evaluation. Larger = cheaper and still
  /// steady-state (the sim floor is 16 scenarios/work-item).
  std::uint64_t sim_scale_divisor = 4096;
};

/// One objective evaluation (or resource-model rejection) in search
/// order — the audit trail BENCH_tuner.json serializes.
struct TrajectoryPoint {
  unsigned eval = 0;       ///< evaluation index (pruned points share it)
  std::string point;       ///< "knob=value ..." summary
  double objective = 0.0;  ///< units/second; 0 when pruned
  bool feasible = true;    ///< false = resource model rejected it
  bool improved = false;   ///< became the incumbent best
};

struct TuneResult {
  TunedConfig best;
  /// The untouched default configuration, scored with the same
  /// objective — the baseline "tuned vs default" ratios compare
  /// against, and the fallback callers keep when tuning is off.
  TunedConfig fallback;
  std::vector<TrajectoryPoint> trajectory;
  unsigned evaluations = 0;
  unsigned pruned_infeasible = 0;

  double speedup() const {
    return fallback.modeled_throughput > 0.0
               ? best.modeled_throughput / fallback.modeled_throughput
               : 0.0;
  }
};

/// Tune the Table III FPGA configuration `app` for `dev`. Objective:
/// modeled kernel samples/second (cycle sim × device clock) divided by
/// the host-harness overhead factor of batch_iterations. Default point:
/// the §IV-C N_max design at the calibrated burst/depth.
TuneResult tune_table3(const fpga::DeviceSpec& dev, const rng::AppConfig& app,
                       const TunerOptions& options = {});

/// Tune the Fig 5 NDRange shape of `app` on `platform`. Objective:
/// modeled kernel runs/second. The estimator's default local size is
/// already the paper's Fig 5a optimum, so an honest tuner mostly
/// CONFIRMS the paper here (speedup ≈ 1.0) — the point of the sweep is
/// that the search finds the published optimum from scratch.
TuneResult tune_fig5(simt::PlatformId platform, const rng::AppConfig& app,
                     const TunerOptions& options = {});

}  // namespace dwi::tune
