// Fig 2 and Fig 3, regenerated from real execution traces instead of
// drawn as concept art:
//
//   Fig 2b: a lockstep hardware partition running the Marsaglia-Bray
//   gamma kernel — every executed region prints one column, active
//   lanes '#', idle lanes '.' (the paper's red dots), showing the
//   divergence the fixed architectures pay;
//
//   Fig 2c / Fig 3: the FPGA's decoupled work-items — per-cycle state
//   of each pipeline (C = computation, S = stalled on the stream) and
//   of the single memory channel (digit = work-item being served),
//   showing computation/transfer interleaving and the work-items
//   shifting apart in time.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "fpga/kernel_sim.h"
#include "rng/configs.h"
#include "simt/gamma_kernel.h"
#include "simt/platform.h"

int main(int argc, char** argv) {
  using namespace dwi;

  // Single-threaded figure bench: the shared --threads flag is parsed
  // for CLI uniformity but has nothing to sweep here.
  const auto args = bench::parse_bench_args(argc, argv, "fig2_fig3_schedules",
                                            "BENCH_fig2_fig3.json");
  if (!args) return 2;
  double idle_lane_pct = 0.0;

  // --- Fig 2b: divergence on a fixed architecture ----------------------
  std::cout << "=== Fig 2b: lockstep partition, Marsaglia-Bray gamma "
               "kernel (16 lanes, first 28 regions) ===\n"
               "columns = executed regions in issue order; '#' = lane "
               "active, '.' = lane idle (divergence waste)\n\n";
  {
    std::vector<std::pair<simt::Mask, simt::Mask>> regions;
    simt::PlatformModel pm = simt::phi_7120p();
    (void)simt::run_gamma_partition(
        pm, rng::config(rng::ConfigId::kConfig2),
        rng::NormalTransform::kMarsagliaBray, 1.39f, 4, 21,
        [&](simt::Mask mask, simt::Mask parent, const simt::OpBundle&) {
          if (regions.size() < 28) regions.emplace_back(mask, parent);
        });
    for (unsigned lane = 0; lane < pm.width; ++lane) {
      std::cout << "lane " << (lane < 10 ? " " : "") << lane << " |";
      for (const auto& [mask, parent] : regions) {
        const bool active = (mask >> lane) & 1u;
        const bool in_flow = (parent >> lane) & 1u;
        std::cout << (active ? '#' : (in_flow ? '.' : ' '));
      }
      std::cout << "|\n";
    }
    double idle = 0.0;
    double total = 0.0;
    for (const auto& [mask, parent] : regions) {
      total += pm.width;
      idle += pm.width - static_cast<double>(simt::popcount(mask));
    }
    idle_lane_pct = 100.0 * idle / total;
    std::cout << "\nidle lane-slots in this window: " << idle_lane_pct
              << " %\n";
  }

  // --- Fig 2c / Fig 3: decoupled FPGA work-items ------------------------
  std::cout << "\n=== Fig 2c / Fig 3: decoupled work-items on the FPGA "
               "(4 work-items, small bursts for visibility) ===\n"
               "per work-item: C = computation, S = stalled on stream, "
               "- = II wait; channel row: digit = serving work-item\n\n";
  {
    fpga::ScheduleTrace trace;
    fpga::KernelSimConfig cfg;
    cfg.work_items = 4;
    cfg.outputs_per_work_item = 192;
    cfg.burst_beats = 2;          // tiny bursts so transfers are visible
    cfg.stream_depth = 8;
    cfg.channel.turnaround_cycles = 6;
    cfg.trace = &trace;
    // --seed shifts the producers' acceptance pattern; the default (1)
    // reproduces the committed figure.
    const auto base_seed = static_cast<unsigned>(args->seed) + 32;
    (void)fpga::simulate_kernel(cfg, [base_seed](unsigned w) {
      return std::make_unique<fpga::BernoulliProducer>(0.766, base_seed + w);
    });
    const std::size_t window_start = 40;  // skip the fill, show steady state
    const std::size_t window = 140;
    for (unsigned w = 0; w < cfg.work_items; ++w) {
      std::cout << "WI" << w << " |"
                << trace.work_items[w].substr(window_start, window) << "|\n";
    }
    std::cout << "mem |" << trace.channel.substr(window_start, window)
              << "|\n";
    std::cout << "\nEach work-item computes continuously (rejections do "
                 "not stall the others); the single channel serializes "
                 "the bursts, shifting the work-items apart exactly as "
                 "Fig 3 sketches.\n";
  }

  if (auto jf = bench::open_bench_json(args->json_path)) {
    bench::JsonWriter j(jf);
    j.begin_object();
    bench::write_bench_header(j, "fig2_fig3_schedules", args->seed);
    j.kv("idle_lane_pct", idle_lane_pct);
    j.end_object();
    jf << "\n";
    std::cout << "\nWrote " << args->json_path << "\n";
  }
  return 0;
}
