// Inter-kernel pipeline benchmark: the resident CreditRisk+ chain
// (finance/pipeline) against its staged and scalar baselines, plus the
// cycle-level pipe-depth model.
//
// Phases:
//   1. Bit-identity matrix — run_staged vs run_piped across pipe
//      depths, scenario-block sizes and all three substream strategies;
//      every cell must produce the same loss vector bit for bit
//      (`piped_vs_staged_identical`, fatal in compare_bench.py).
//   2. End-to-end sweep — per --threads entry: scalar reference
//      (pre-pipe per-draw architecture), staged block kernels (host
//      round-trips) and the resident piped chain, same outputs each
//      way. `wall_seconds` (the piped time) is what the perf CI
//      polices against bench/baselines/pipeline_creditrisk.json; the
//      headline is speedup_piped_vs_scalar (the ISSUE's >= 1.5x).
//   3. Pipe-depth model — fpga::simulate_pipeline stall/cycle counts
//      across depths next to the scheduler's inter-kernel RecMII bound
//      (the depth-tuning table of docs/PERF.md).
//
// Emits BENCH_pipeline.json via bench/bench_json.h.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "common/table.h"
#include "exec/thread_pool.h"
#include "finance/pipeline.h"
#include "finance/portfolio.h"
#include "fpga/pipeline_sim.h"
#include "fpga/scheduler.h"

namespace {

using namespace dwi;

std::uint64_t fnv_mix(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fingerprint(const finance::LossDistribution& dist) {
  return fnv_mix(0xcbf29ce484222325ull, dist.losses().data(),
                 dist.losses().size() * sizeof(double));
}

double time_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Sampling-dominated book: many sectors (each one an independent
/// gamma substream to sample), few obligors (cheap aggregation) — the
/// regime where the sampling stages, not the Poisson consumer, set the
/// pace.
finance::Portfolio bench_portfolio(std::uint64_t seed) {
  return finance::Portfolio::synthetic(
      12,
      {{1.39, "representative"},
       {0.8, "stable"},
       {1.1, "cyclical"},
       {1.6, "volatile"},
       {0.5, "utilities"},
       {2.0, "emerging"},
       {1.39, "financials"},
       {0.9, "industrial"}},
      seed);
}

const char* strategy_name(rng::StreamStrategy s) {
  switch (s) {
    case rng::StreamStrategy::kDistinctSeeds: return "distinct_seeds";
    case rng::StreamStrategy::kJumpAhead: return "jump_ahead";
    case rng::StreamStrategy::kCounterBased: return "counter_based";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> extra;
  const auto args = bench::parse_bench_args(
      argc, argv, "pipeline_creditrisk", "BENCH_pipeline.json",
      "[--scenarios=N]", &extra);
  if (!args) return 2;

  std::uint64_t scenarios = 100'000;
  for (const std::string& arg : extra) {
    if (arg.rfind("--scenarios=", 0) == 0) {
      scenarios = std::strtoull(arg.c_str() + 12, nullptr, 10);
    } else {
      std::cerr << "pipeline_creditrisk: unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (scenarios < 2) {
    std::cerr << "pipeline_creditrisk: need scenarios>=2\n";
    return 2;
  }

  const finance::Portfolio portfolio = bench_portfolio(args->seed);
  std::cout << "portfolio: " << portfolio.num_sectors() << " sectors, "
            << portfolio.num_obligors() << " obligors, " << scenarios
            << " scenarios, seed " << args->seed << "\n";

  // ==== Phase 1: staged vs piped bit-identity matrix ==================
  bool piped_identical = true;
  std::cout << "\n=== Bit-identity: run_staged vs run_piped ===\n";
  {
    TextTable t;
    t.set_header({"Strategy", "Depth", "Block", "Staged fp", "Piped fp",
                  "Match"});
    for (const auto strategy : {rng::StreamStrategy::kDistinctSeeds,
                                rng::StreamStrategy::kJumpAhead,
                                rng::StreamStrategy::kCounterBased}) {
      finance::PipelineConfig cfg;
      cfg.num_scenarios = 4'000;
      cfg.seed = args->seed;
      cfg.strategy = strategy;
      const std::uint64_t staged_fp =
          fingerprint(finance::run_staged(portfolio, cfg));
      for (const std::size_t depth : {std::size_t{1}, std::size_t{8},
                                      std::size_t{64}}) {
        for (const std::size_t block : {std::size_t{1}, std::size_t{256}}) {
          cfg.pipe_depth = depth;
          cfg.scenario_block = block;
          const std::uint64_t piped_fp =
              fingerprint(finance::run_piped(portfolio, cfg));
          const bool ok = piped_fp == staged_fp;
          piped_identical &= ok;
          char staged_hex[32], piped_hex[32];
          std::snprintf(staged_hex, sizeof staged_hex, "%016llx",
                        static_cast<unsigned long long>(staged_fp));
          std::snprintf(piped_hex, sizeof piped_hex, "%016llx",
                        static_cast<unsigned long long>(piped_fp));
          t.add_row({strategy_name(strategy),
                     TextTable::integer(static_cast<long long>(depth)),
                     TextTable::integer(static_cast<long long>(block)),
                     staged_hex, piped_hex, ok ? "yes" : "NO"});
        }
      }
    }
    t.render(std::cout);
  }
  std::cout << (piped_identical
                    ? "Piped chain is bit-identical to the staged launches "
                      "at every depth and block size."
                    : "ERROR: piped results depend on pipe configuration!")
            << "\n";

  // ==== Phase 2: end-to-end sweep =====================================
  struct SweepPoint {
    unsigned threads = 0;
    double scalar_seconds = 0.0;
    double staged_seconds = 0.0;
    double piped_seconds = 0.0;
    finance::PipelineStats stats;
  };
  std::vector<SweepPoint> sweep;
  for (const unsigned threads : args->threads) {
    exec::set_thread_count(threads);
    finance::PipelineConfig cfg;
    cfg.num_scenarios = scenarios;
    cfg.seed = args->seed;
    SweepPoint p;
    p.threads = threads;
    // Best of 2 per engine: these runs are seconds-long, the second
    // repetition removes first-touch noise.
    for (int rep = 0; rep < 2; ++rep) {
      const double scalar = time_seconds(
          [&] { (void)finance::run_scalar_reference(portfolio, cfg); });
      const double staged =
          time_seconds([&] { (void)finance::run_staged(portfolio, cfg); });
      finance::PipelineStats stats;
      const double piped = time_seconds(
          [&] { (void)finance::run_piped(portfolio, cfg, &stats); });
      if (rep == 0 || scalar < p.scalar_seconds) p.scalar_seconds = scalar;
      if (rep == 0 || staged < p.staged_seconds) p.staged_seconds = staged;
      if (rep == 0 || piped < p.piped_seconds) {
        p.piped_seconds = piped;
        p.stats = stats;
      }
    }
    sweep.push_back(p);
  }
  exec::set_thread_count(0);

  std::cout << "\n=== End-to-end CreditRisk+ (" << scenarios
            << " scenarios) ===\n";
  {
    TextTable t;
    t.set_header({"Threads", "Scalar [s]", "Staged [s]", "Piped [s]",
                  "Piped/scalar", "Piped/staged"});
    for (const auto& p : sweep) {
      t.add_row({TextTable::integer(p.threads),
                 TextTable::num(p.scalar_seconds, 3),
                 TextTable::num(p.staged_seconds, 3),
                 TextTable::num(p.piped_seconds, 3),
                 TextTable::num(p.scalar_seconds / p.piped_seconds, 2) + "x",
                 TextTable::num(p.staged_seconds / p.piped_seconds, 2) +
                     "x"});
    }
    t.render(std::cout);
  }
  {
    const auto& p = sweep.back();
    std::cout << "pipe stalls (widest entry): uniform full "
              << p.stats.uniform_pipe_full << ", normal full "
              << p.stats.normal_pipe_full << ", gamma full "
              << p.stats.scenario_pipe_full << ", intensity full "
              << p.stats.intensity_pipe_full << ", normal starved "
              << p.stats.normal_pipe_empty << ", gamma starved "
              << p.stats.gamma_pipe_empty << ", intensity starved "
              << p.stats.aggregate_pipe_empty << ", poisson starved "
              << p.stats.poisson_pipe_empty << "; rounds "
              << p.stats.rounds_produced << ", discarded "
              << p.stats.bundles_discarded << "\n";
  }

  // ==== Phase 3: pipe-depth model (cycle-level) =======================
  struct DepthPoint {
    std::size_t depth = 0;
    std::uint64_t cycles = 0;
    std::uint64_t full_stalls = 0;
    std::uint64_t empty_stalls = 0;
    unsigned rec_mii = 0;
  };
  std::vector<DepthPoint> depth_points;
  {
    fpga::PipelineSimConfig sim;
    // The CreditRisk+ chain shape: uniform source (II 1), normal
    // transform (~pi/4 acceptance for Marsaglia-Bray), gamma rejection
    // (~0.95 given a valid normal), aggregation sink.
    sim.stages = {{"uniform", 1, 8, 1.0, 11},
                  {"normal", 1, 24, 0.785, 22},
                  {"gamma", 1, 64, 0.95, 33},
                  {"aggregate", 1, 16, 1.0, 44}};
    sim.outputs = 50'000;
    const std::vector<unsigned> latencies = {8, 24, 64, 16};
    for (const std::size_t depth :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}, std::size_t{64}}) {
      sim.pipe_depth = depth;
      const fpga::PipelineSimResult r = fpga::simulate_pipeline(sim);
      DepthPoint d;
      d.depth = depth;
      d.cycles = r.cycles;
      for (const auto& st : r.stages) {
        d.full_stalls += st.full_stalls;
        d.empty_stalls += st.empty_stalls;
      }
      d.rec_mii =
          fpga::inter_kernel_chain_graph(latencies,
                                         static_cast<unsigned>(depth))
              .recurrence_mii();
      depth_points.push_back(d);
    }
  }
  std::cout << "\n=== Pipe-depth model (cycle-level, 50k outputs) ===\n";
  {
    TextTable t;
    t.set_header({"Depth", "Cycles", "Full stalls", "Empty stalls",
                  "Chain RecMII"});
    for (const auto& d : depth_points) {
      t.add_row({TextTable::integer(static_cast<long long>(d.depth)),
                 TextTable::integer(static_cast<long long>(d.cycles)),
                 TextTable::integer(static_cast<long long>(d.full_stalls)),
                 TextTable::integer(static_cast<long long>(d.empty_stalls)),
                 TextTable::integer(d.rec_mii)});
    }
    t.render(std::cout);
  }

  // ==== Artifact ======================================================
  if (auto jf = bench::open_bench_json(args->json_path)) {
    bench::JsonWriter j(jf);
    j.begin_object();
    bench::write_bench_header(j, "pipeline_creditrisk", args->seed);
    j.kv("scenarios", scenarios);
    j.kv("sectors", static_cast<std::uint64_t>(portfolio.num_sectors()));
    j.kv("obligors", static_cast<std::uint64_t>(portfolio.num_obligors()));
    j.kv("piped_vs_staged_identical", piped_identical);
    j.key("sweep").begin_array();
    for (const auto& p : sweep) {
      j.begin_object();
      j.kv("threads", p.threads);
      j.kv("wall_seconds", p.piped_seconds);
      j.kv("scalar_seconds", p.scalar_seconds);
      j.kv("staged_seconds", p.staged_seconds);
      j.kv("speedup_piped_vs_scalar", p.scalar_seconds / p.piped_seconds);
      j.kv("speedup_piped_vs_staged", p.staged_seconds / p.piped_seconds);
      j.kv("rounds_produced", p.stats.rounds_produced);
      j.kv("bundles_discarded", p.stats.bundles_discarded);
      j.kv("uniform_pipe_full", p.stats.uniform_pipe_full);
      j.kv("gamma_pipe_empty", p.stats.gamma_pipe_empty);
      j.kv("aggregate_pipe_empty", p.stats.aggregate_pipe_empty);
      j.kv("poisson_pipe_empty", p.stats.poisson_pipe_empty);
      j.end_object();
    }
    j.end_array();
    j.key("depth_model").begin_array();
    for (const auto& d : depth_points) {
      j.begin_object();
      j.kv("pipe_depth", static_cast<std::uint64_t>(d.depth));
      j.kv("cycles", d.cycles);
      j.kv("full_stalls", d.full_stalls);
      j.kv("empty_stalls", d.empty_stalls);
      j.kv("chain_rec_mii", d.rec_mii);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    jf << "\n";
    std::cout << "\nWrote " << args->json_path << "\n";
  }

  const bool ok = piped_identical;
  std::cout << "headline: piped "
            << sweep.back().scalar_seconds / sweep.back().piped_seconds
            << "x over the scalar staged baseline\n";
  return ok ? 0 : 1;
}
