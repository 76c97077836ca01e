// Resource-aware throughput autotuner bench: runs src/tune's seeded
// coordinate-descent search over the repo's two modeled workload
// families and emits BENCH_tuner.json — the search trajectory, the chosen
// TunedConfig per (workload, device), and tuned-vs-default modeled
// throughput — which the perf-regression CI job polices against
// bench/baselines/autotune.json via compare_bench.py's "tuner" kind.
//
// Sweep entries (axis: "workload"):
//   * table3:Config1..4 on the ADM-PCIE-7V3 — joint {work-items,
//     stream depth, burst beats, batch_iterations}
//     against the cycle-level simulator, with Table II resource
//     pruning (§IV-C's routability ceiling as an admission rule).
//   * fig5:CPU/GPU/PHI:Config1 — NDRange {local, global} against the
//     fixed-architecture runtime estimator. The estimator's default
//     local size already IS the paper's Fig 5a optimum, so the honest
//     speedup here is ~1.0x: the search's job is to re-find the
//     published optimum from scratch, not to beat it.
//
// Gate (exit 1 on failure): every chosen config must be feasible,
// every search must be run-to-run deterministic (same seed, same
// TunedConfig — checked by running each search twice), and the tuned
// config must beat the default by >= 1.15x geomean in both workload
// categories ("tuned_beats_default").
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "common/table.h"
#include "fpga/device.h"
#include "rng/configs.h"
#include "simt/platform.h"
#include "tune/autotuner.h"
#include "tune/tuned_config.h"

namespace {

using namespace dwi;

constexpr double kSpeedupThreshold = 1.15;

struct Entry {
  std::string category;  ///< "table3" / "fig5"
  tune::TuneResult result;
  bool search_identical = true;
};

/// The chosen config as a single diff-friendly line ("key=value ..."),
/// the string compare_bench.py prints as "offending config" when a
/// tuner gate fails.
std::string one_line_config(const tune::TunedConfig& cfg) {
  std::string text = tune::format_tuned_config(cfg);
  std::string out;
  bool first_line = true;  // drop the "dwi-tuned-config v1" header
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (!first_line && end > start) {
      if (!out.empty()) out += ' ';
      out.append(text, start, end - start);
    }
    first_line = false;
    start = end + 1;
  }
  return out;
}

/// Run `search` twice with identical options and keep the first
/// outcome; flags run-to-run divergence (the determinism contract the
/// walk_flags gate in compare_bench.py makes fatal).
template <typename Search>
Entry tuned_twice(const std::string& category, Search&& search) {
  Entry e;
  e.category = category;
  e.result = search();
  const tune::TuneResult repeat = search();
  e.search_identical = tune::format_tuned_config(e.result.best) ==
                       tune::format_tuned_config(repeat.best);
  return e;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> extra;
  const auto args = bench::parse_bench_args(
      argc, argv, "autotune", "BENCH_tuner.json",
      "[--budget=N] [--passes=N]", &extra);
  if (!args) return 2;

  tune::TunerOptions opt;
  opt.seed = args->seed;
  opt.budget = 48;
  for (const std::string& arg : extra) {
    if (arg.rfind("--budget=", 0) == 0) {
      opt.budget = static_cast<unsigned>(
          std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else if (arg.rfind("--passes=", 0) == 0) {
      opt.passes = static_cast<unsigned>(
          std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else {
      std::cerr << "autotune: unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (opt.budget == 0 || opt.passes == 0) {
    std::cerr << "autotune: need budget>0 and passes>0\n";
    return 2;
  }

  std::cout << "seed: " << opt.seed << ", budget: " << opt.budget
            << " evaluations, passes: " << opt.passes << "\n";

  std::vector<Entry> entries;

  // --- table3: all four Table I configurations on the paper device ----
  const fpga::DeviceSpec& dev = fpga::adm_pcie_7v3();
  for (const rng::AppConfig& app : rng::all_configs()) {
    entries.push_back(tuned_twice(
        "table3", [&] { return tune_table3(dev, app, opt); }));
  }

  // --- fig5: Config1 NDRange shape on the three fixed architectures ---
  for (const simt::PlatformId plat :
       {simt::PlatformId::kCpu, simt::PlatformId::kGpu,
        simt::PlatformId::kPhi}) {
    entries.push_back(tuned_twice("fig5", [&] {
      return tune_fig5(plat, rng::config(rng::ConfigId::kConfig1), opt);
    }));
  }

  // --- gates ----------------------------------------------------------
  bool all_feasible = true;
  bool all_identical = true;
  std::vector<double> table3_speedups, fig5_speedups;
  for (const Entry& e : entries) {
    all_feasible &= e.result.best.feasible;
    all_identical &= e.search_identical;
    if (e.category == "table3") table3_speedups.push_back(e.result.speedup());
    if (e.category == "fig5") fig5_speedups.push_back(e.result.speedup());
  }
  const double table3_geomean = geomean(table3_speedups);
  const double fig5_geomean = geomean(fig5_speedups);
  unsigned categories_passed = 0;
  for (const double g : {table3_geomean, fig5_geomean}) {
    if (g >= kSpeedupThreshold) ++categories_passed;
  }
  const bool tuned_beats_default = categories_passed >= 2;

  std::cout << "\n=== Tuned vs default (modeled) ===\n";
  {
    TextTable t;
    t.set_header({"Workload", "Device", "Default", "Tuned", "Speedup",
                  "Evals", "Pruned"});
    for (const Entry& e : entries) {
      t.add_row({e.result.best.workload, e.result.best.device,
                 TextTable::num(e.result.fallback.modeled_throughput, 0),
                 TextTable::num(e.result.best.modeled_throughput, 0),
                 TextTable::num(e.result.speedup(), 3),
                 TextTable::integer(e.result.evaluations),
                 TextTable::integer(e.result.pruned_infeasible)});
    }
    t.render(std::cout);
  }
  std::cout << "\ncategory geomeans: table3 " << table3_geomean << ", fig5 "
            << fig5_geomean << " (threshold " << kSpeedupThreshold << ", "
            << categories_passed << "/2 passed, need 2)\n";
  if (!all_feasible) {
    std::cout << "ERROR: a chosen config exceeds the modeled resource "
                 "budget\n";
  }
  if (!all_identical) {
    std::cout << "ERROR: a search diverged between identically seeded "
                 "runs\n";
  }
  if (!tuned_beats_default) {
    std::cout << "ERROR: tuned configs beat the defaults in only "
              << categories_passed << "/2 categories (need 2)\n";
  }

  // --- artifact -------------------------------------------------------
  if (auto jf = bench::open_bench_json(args->json_path)) {
    bench::JsonWriter j(jf);
    j.begin_object();
    bench::write_bench_header(j, "autotune", args->seed);
    j.kv("kind", "tuner");
    j.kv("budget", opt.budget);
    j.kv("passes", opt.passes);
    j.kv("speedup_threshold", kSpeedupThreshold);
    j.key("category_geomeans").begin_object();
    j.kv("table3", table3_geomean);
    j.kv("fig5", fig5_geomean);
    j.end_object();
    j.kv("categories_passed", categories_passed);
    j.kv("tuned_beats_default", tuned_beats_default);
    j.kv("all_feasible", all_feasible);
    j.key("sweep").begin_array();
    for (const Entry& e : entries) {
      const tune::TuneResult& r = e.result;
      j.begin_object();
      j.kv("workload", r.best.workload);
      j.kv("category", e.category);
      j.kv("device", r.best.device);
      j.kv("modeled_default", r.fallback.modeled_throughput);
      j.kv("modeled_tuned", r.best.modeled_throughput);
      // throughput_rps mirrors modeled_tuned so the generic
      // higher-is-better comparison in compare_bench.py applies; the
      // model is deterministic, so baseline drift here is a real
      // change, not noise.
      j.kv("throughput_rps", r.best.modeled_throughput);
      j.kv("modeled_speedup", r.speedup());
      j.kv("evaluations", r.evaluations);
      j.kv("pruned_infeasible", r.pruned_infeasible);
      j.kv("feasible", r.best.feasible);
      j.kv("search_identical", e.search_identical);
      j.kv("chosen_config", one_line_config(r.best));
      j.key("trajectory").begin_array();
      for (const tune::TrajectoryPoint& p : r.trajectory) {
        j.begin_object();
        j.kv("eval", p.eval);
        j.kv("point", p.point);
        j.kv("objective", p.objective);
        j.kv("feasible", p.feasible);
        j.kv("improved", p.improved);
        j.end_object();
      }
      j.end_array();
      j.end_object();
    }
    j.end_array();
    j.end_object();
    jf << "\n";
    std::cout << "Wrote " << args->json_path << "\n";
  }

  return (tuned_beats_default && all_feasible && all_identical) ? 0 : 1;
}
