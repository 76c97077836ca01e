// Shared vocabulary of the perfbench program: options, the outcome every
// workload fills in, order statistics and process resource counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;     ///< measured time of one run
  bool trace = false;        ///< traced run: per-layer metrics + trace file
  std::string out_dir = "."; ///< where the traced run writes its files
  unsigned threads = 1;      ///< pool size and client count, min(4, nproc)
};

/// What one workload run produced. Metrics are keyed by name; main()
/// picks the ones BENCHMARK.json lists for the run's mode and prints
/// every other one in the human-readable report.
struct Outcome {
  std::uint64_t attempted = 0;  ///< operations offered to the system
  std::uint64_t failed = 0;     ///< refused or failed operations
  std::vector<std::string> check_failures;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;  ///< extra report lines

  /// Record an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  bool correct() const { return check_failures.empty(); }
};

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty set.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// "0.8123 0.7991 ...": a list of durations for the report.
std::string list_seconds(const std::vector<double>& v);

/// a <= b, allowing for the rounding of a mean of equal values (an
/// expected shortfall over tied losses can land one ulp below its VaR).
inline bool at_most(double a, double b) {
  return a <= b + 1e-12 * (a < 0 ? -a : a);
}

/// Process CPU time (user + system) in seconds, from getrusage.
double process_cpu_seconds();
/// Peak resident set size of the process in MiB, from getrusage.
double peak_rss_mb();

/// 64-bit mix (splitmix64 finalizer) for deriving inputs from the seed.
std::uint64_t mix64(std::uint64_t x);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// Workload entry points (one translation unit each).
Outcome run_paper_sim(const Options& opt);
Outcome run_serve_small(const Options& opt);
Outcome run_serve_heavy(const Options& opt);
Outcome run_creditrisk_pipeline(const Options& opt);

}  // namespace perfbench
