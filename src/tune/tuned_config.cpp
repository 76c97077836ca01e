#include "tune/tuned_config.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.h"

namespace dwi::tune {

namespace {

constexpr const char* kHeader = "dwi-tuned-config v1";

std::string format_double(double v) {
  // Shortest round-trip representation: %.17g always reconstructs the
  // exact double through strtod.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
  DWI_REQUIRE(end != nullptr && *end == '\0' && !value.empty(),
              "tuned config: bad integer for key '" + key + "': " + value);
  return v;
}

double parse_f64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  DWI_REQUIRE(end != nullptr && *end == '\0' && !value.empty(),
              "tuned config: bad number for key '" + key + "': " + value);
  return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true") return true;
  if (value == "false") return false;
  throw Error("tuned config: bad bool for key '" + key + "': " + value);
}

}  // namespace

std::string format_tuned_config(const TunedConfig& cfg) {
  std::ostringstream out;
  out << kHeader << '\n';
  out << "workload=" << cfg.workload << '\n';
  out << "device=" << cfg.device << '\n';
  out << "seed=" << cfg.seed << '\n';
  out << "work_items=" << cfg.work_items << '\n';
  out << "stream_depth=" << cfg.stream_depth << '\n';
  out << "burst_beats=" << cfg.burst_beats << '\n';
  out << "batch_iterations=" << cfg.batch_iterations << '\n';
  out << "global_size=" << cfg.global_size << '\n';
  out << "local_size=" << cfg.local_size << '\n';
  out << "modeled_throughput=" << format_double(cfg.modeled_throughput)
      << '\n';
  out << "feasible=" << (cfg.feasible ? "true" : "false") << '\n';
  return out.str();
}

TunedConfig parse_tuned_config(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  DWI_REQUIRE(std::getline(in, line) && line == kHeader,
              "tuned config: missing '" + std::string(kHeader) + "' header");
  TunedConfig cfg;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    DWI_REQUIRE(eq != std::string::npos,
                "tuned config: line without '=': " + line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "workload") {
      cfg.workload = value;
    } else if (key == "device") {
      cfg.device = value;
    } else if (key == "seed") {
      cfg.seed = parse_u64(key, value);
    } else if (key == "work_items") {
      cfg.work_items = static_cast<unsigned>(parse_u64(key, value));
    } else if (key == "stream_depth") {
      cfg.stream_depth = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "burst_beats") {
      cfg.burst_beats = static_cast<unsigned>(parse_u64(key, value));
    } else if (key == "batch_iterations") {
      cfg.batch_iterations = static_cast<std::uint32_t>(parse_u64(key, value));
    } else if (key == "global_size") {
      cfg.global_size = parse_u64(key, value);
    } else if (key == "local_size") {
      cfg.local_size = static_cast<unsigned>(parse_u64(key, value));
    } else if (key == "modeled_throughput") {
      cfg.modeled_throughput = parse_f64(key, value);
    } else if (key == "feasible") {
      cfg.feasible = parse_bool(key, value);
    } else {
      throw Error("tuned config: unknown key '" + key + "'");
    }
  }
  return cfg;
}

}  // namespace dwi::tune
