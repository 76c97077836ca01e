// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Runs one named workload for about S measured seconds on inputs
// derived from the seed, checks its outputs, prints a human-readable
// report and, as the last line, one JSON object holding every metric
// the run measured. perfbench/run.py builds this program and reduces
// that line to the metric set BENCHMARK.json names for the mode.
//
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on a usage error or an exception.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct WorkloadEntry {
  const char* name;
  Outcome (*run)(const Options&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"paper_sim", perfbench::run_paper_sim},
    {"serve_small", perfbench::run_serve_small},
    {"serve_heavy", perfbench::run_serve_heavy},
    {"creditrisk_pipeline", perfbench::run_creditrisk_pipeline},
};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\nworkloads:";
  for (const auto& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 600.0) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload) return usage("--workload is required");
  const WorkloadEntry* entry = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) entry = &w;
  }
  if (entry == nullptr) return usage("unknown workload");
  // The load comes from at most min(4, nproc) threads: the pool size
  // and the client count are both this.
  opt.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  Outcome out;
  try {
    out = entry->run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " threw: " << e.what()
              << "\n";
    return 2;
  }

  std::cout << "workload " << opt.workload << ", seed " << opt.seed
            << ", threads " << opt.threads << ", "
            << (opt.trace ? "traced" : "untraced") << "\n";
  for (const auto& n : out.notes) std::cout << "  " << n << "\n";
  for (const auto& [name, v] : out.metrics) {
    std::printf("  %-22s %14.6g %s\n", name.c_str(), v.first,
                v.second.c_str());
  }
  std::cout << "  attempted " << out.attempted << ", failed " << out.failed
            << "\n";
  for (const auto& f : out.check_failures) {
    std::cout << "  CHECK FAILED: " << f << "\n";
  }

  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, v] : out.metrics) {
    std::snprintf(num, sizeof num, "%.17g", v.first);
    // Metric names and units are identifiers: nothing to escape.
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num +
            ", \"unit\": \"" + v.second + "\"}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return out.correct() ? 0 : 1;
}
