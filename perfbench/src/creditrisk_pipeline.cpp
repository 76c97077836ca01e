// creditrisk_pipeline: finance::run_piped on the multi-sector
// CreditRisk+ book of bench/pipeline_creditrisk, called back to back.
// It is the only workload that runs the hls::Pipe handoffs and the four
// stage kernels of core/pipeline_kernels.
//
// The traced run adds run_staged, and a serial driver that launches the
// same stage kernels one after another the way run_staged does, with a
// span per launch. The driver's result must equal run_piped's bit for
// bit, so the stage times belong to the computation being timed.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/pipeline_kernels.h"
#include "exec/thread_pool.h"
#include "finance/creditrisk_plus.h"
#include "finance/pipeline.h"
#include "finance/portfolio.h"
#include "rng/gamma.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace dwi;

/// Scenarios per run_piped call: about a tenth of a second each, so a
/// run holds enough calls for a steady median.
constexpr std::uint64_t kScenarios = 100'000;
constexpr int kSetups = 7;
/// Warm-up calls per set-up: enough that one set-up lasts about 0.3 s.
constexpr int kWarmupCalls = 5;

/// The book is the same for every run seed: its exposures and default
/// probabilities set the aggregation cost, which must not vary by seed.
constexpr std::uint64_t kBookSeed = 1;

/// Sampling-dominated book: eight sectors (one gamma substream each),
/// few obligors (cheap aggregation).
finance::Portfolio book() {
  return finance::Portfolio::synthetic(12,
                                       {{1.39, "representative"},
                                        {0.8, "stable"},
                                        {1.1, "cyclical"},
                                        {1.6, "volatile"},
                                        {0.5, "utilities"},
                                        {2.0, "emerging"},
                                        {1.39, "financials"},
                                        {0.9, "industrial"}},
                                       kBookSeed);
}

finance::PipelineConfig pipeline_config(std::uint64_t seed) {
  finance::PipelineConfig cfg;
  cfg.num_scenarios = kScenarios;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t fingerprint(const finance::LossDistribution& d) {
  return fnv1a(kFnvBasis, d.losses().data(),
               d.losses().size() * sizeof(double));
}

/// run_staged's launch sequence over the public stage kernels, one
/// span per kernel launch.
finance::LossDistribution serial_stages(const finance::Portfolio& portfolio,
                                        const finance::PipelineConfig& cfg,
                                        Tracer& tr, std::uint64_t parent,
                                        std::uint64_t call) {
  const std::size_t K = portfolio.num_sectors();
  std::vector<rng::GammaConstants> constants;
  for (const finance::Sector& s : portfolio.sectors()) {
    constants.push_back(rng::GammaConstants::from_sector_variance(
        static_cast<float>(s.variance)));
  }
  core::StreamConfig scfg;
  scfg.strategy = cfg.strategy;
  scfg.seed = static_cast<std::uint32_t>(cfg.seed);
  scfg.stride = cfg.substream_stride;
  core::UniformKernel uniform(scfg, cfg.transform, constants, cfg.round);
  core::GammaRejectKernel reject(std::move(constants));
  const double per_attempt = core::expected_accept_per_attempt(cfg.transform);

  std::vector<std::vector<float>> acc(K);
  for (auto& a : acc) a.reserve(cfg.num_scenarios);
  bool all_done = false;
  while (!all_done) {
    std::vector<core::RoundBundle> rounds;
    {
      const Scope s(&tr, "core.uniform", parent, call);
      for (std::size_t k = 0; k < K; ++k) {
        const std::uint64_t have = acc[k].size();
        if (have >= cfg.num_scenarios) continue;
        const double need = static_cast<double>(cfg.num_scenarios - have);
        const auto n_rounds =
            static_cast<std::size_t>(
                need / (per_attempt * static_cast<double>(cfg.round))) +
            1;
        for (std::size_t r = 0; r < n_rounds; ++r) {
          rounds.push_back(uniform.next_round(k));
        }
      }
    }
    std::vector<core::CandidateBundle> candidates;
    {
      const Scope s(&tr, "core.normal", parent, call);
      candidates.reserve(rounds.size());
      for (auto& b : rounds) {
        candidates.push_back(core::normal_kernel(cfg.transform, std::move(b)));
      }
    }
    {
      const Scope s(&tr, "core.reject", parent, call);
      for (const auto& c : candidates) {
        auto& a = acc[c.sector];
        if (a.size() >= cfg.num_scenarios) continue;
        const core::AcceptedBlock blk = reject.run(c);
        const std::size_t take = std::min<std::size_t>(
            blk.values.size(), cfg.num_scenarios - a.size());
        a.insert(a.end(), blk.values.begin(),
                 blk.values.begin() + static_cast<std::ptrdiff_t>(take));
      }
    }
    all_done = std::all_of(acc.begin(), acc.end(), [&](const auto& a) {
      return a.size() >= cfg.num_scenarios;
    });
  }

  const Scope s(&tr, "finance.aggregate", parent, call);
  finance::ScenarioAggregator agg(portfolio, cfg.seed);
  std::vector<float> row(K);
  for (std::uint64_t sc = 0; sc < cfg.num_scenarios; ++sc) {
    for (std::size_t k = 0; k < K; ++k) row[k] = acc[k][sc];
    agg.consume_row(row.data());
  }
  return std::move(agg).finish();
}

bool risk_ordered(const finance::LossDistribution& d) {
  const double v95 = d.value_at_risk(0.95);
  const double v999 = d.value_at_risk(0.999);
  const double es = d.expected_shortfall(0.999);
  return std::isfinite(v95) && std::isfinite(es) && v95 >= 0.0 &&
         v95 <= v999 && at_most(v999, es);
}

}  // namespace

Outcome run_creditrisk_pipeline(const Options& opt) {
  Outcome out;
  exec::set_thread_count(opt.threads);

  // Set-up: build the book and make kWarmupCalls calls, kSetups times.
  std::vector<double> setups;
  finance::Portfolio portfolio = book();
  const finance::PipelineConfig cfg = pipeline_config(opt.seed);
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = Clock::now();
    portfolio = book();
    for (int c = 0; c < kWarmupCalls; ++c) {
      (void)finance::run_piped(portfolio, cfg);
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  // Timed: run_piped back to back; every call must repeat the first.
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> walls;
  std::uint64_t fp = 0;
  finance::PipelineStats total;
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  do {
    finance::PipelineStats st;
    const auto t0 = Clock::now();
    const finance::LossDistribution d =
        finance::run_piped(portfolio, cfg, &st);
    walls.push_back(seconds_between(t0, Clock::now()));
    ++out.attempted;
    if (walls.size() == 1) {
      fp = fingerprint(d);
      out.check(d.scenarios() == kScenarios && risk_ordered(d),
                "creditrisk_pipeline: var95 <= var999 <= es999 violated");
    } else {
      out.check(fingerprint(d) == fp,
                "creditrisk_pipeline: run_piped is not repeatable");
    }
    total.rounds_produced += st.rounds_produced;
    total.bundles_discarded += st.bundles_discarded;
    total.uniform_pipe_full += st.uniform_pipe_full;
    total.normal_pipe_full += st.normal_pipe_full;
    total.scenario_pipe_full += st.scenario_pipe_full;
    total.normal_pipe_empty += st.normal_pipe_empty;
    total.gamma_pipe_empty += st.gamma_pipe_empty;
    total.aggregate_pipe_empty += st.aggregate_pipe_empty;
  } while (seconds_between(start, Clock::now()) < budget || walls.size() < 5);
  const double cpu = process_cpu_seconds() - cpu0;
  double wall = 0.0;
  for (const double w : walls) wall += w;
  const double calls = static_cast<double>(walls.size());

  // Once per run, outside the timed region: piped == staged, bit for bit.
  out.check(fingerprint(finance::run_staged(portfolio, cfg)) == fp,
            "creditrisk_pipeline: run_piped differs from run_staged");

  const double pipeline_s = median(walls);
  out.notes.push_back("calls " + std::to_string(walls.size()) + " x " +
                      std::to_string(kScenarios) + " scenarios, " +
                      std::to_string(portfolio.num_sectors()) +
                      " sectors, call seconds p10/p50/p90 " +
                      std::to_string(percentile(walls, 10)) + " " +
                      std::to_string(pipeline_s) + " " +
                      std::to_string(percentile(walls, 90)));
  out.notes.push_back("set-up seconds: " + list_seconds(setups));
  out.set("setup_s", median(setups), "s");
  out.set("p50_ms", pipeline_s * 1e3, "ms");
  out.set("ops_per_s", calls / wall, "1/s");
  out.set("pipeline_s", pipeline_s, "s");

  if (opt.trace) {
    Tracer tr;
    std::vector<double> piped, staged;
    std::uint64_t call = 0;
    const auto tstart = Clock::now();
    do {
      ++call;
      const Scope root(&tr, "bench.call", 0, call);
      {
        const Scope s(&tr, "finance.run_piped", root.id(), call);
        const auto t0 = Clock::now();
        const auto d = finance::run_piped(portfolio, cfg);
        piped.push_back(seconds_between(t0, Clock::now()));
        out.check(fingerprint(d) == fp,
                  "creditrisk_pipeline: traced run_piped differs");
      }
      {
        const Scope s(&tr, "finance.run_staged", root.id(), call);
        const auto t0 = Clock::now();
        (void)finance::run_staged(portfolio, cfg);
        staged.push_back(seconds_between(t0, Clock::now()));
      }
      {
        const Scope s(&tr, "bench.serial_stages", root.id(), call);
        out.check(fingerprint(serial_stages(portfolio, cfg, tr, s.id(),
                                            call)) == fp,
                  "creditrisk_pipeline: serial stage driver differs");
      }
      out.attempted += 3;
    } while (seconds_between(tstart, Clock::now()) < opt.seconds / 2 ||
             call < 3);

    auto self = tr.self_seconds();
    const auto per_call = [&](const char* name) {
      return self[name] / static_cast<double>(call);
    };
    out.set("core.uniform_s", per_call("core.uniform"), "s");
    out.set("core.normal_s", per_call("core.normal"), "s");
    out.set("core.reject_s", per_call("core.reject"), "s");
    out.set("finance.aggregate_s", per_call("finance.aggregate"), "s");
    out.set("finance.staged_s", median(staged), "s");
    out.set("hls.pipe_full",
            static_cast<double>(total.uniform_pipe_full +
                                total.normal_pipe_full +
                                total.scenario_pipe_full) /
                calls,
            "count");
    out.set("hls.pipe_empty",
            static_cast<double>(total.normal_pipe_empty +
                                total.gamma_pipe_empty +
                                total.aggregate_pipe_empty) /
                calls,
            "count");
    out.set("finance.discard_ratio",
            static_cast<double>(total.bundles_discarded) /
                static_cast<double>(total.rounds_produced),
            "frac");
    out.set("exec.cpu_s", cpu / calls, "s");
    out.set("exec.util", cpu / (wall * opt.threads), "frac");
    out.set("trace.overhead", median(piped) / pipeline_s - 1.0, "frac");

    const std::string path = opt.out_dir + "/creditrisk_pipeline-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    out.check(tr.write_chrome_trace(path), "could not write " + path);
    out.notes.push_back("trace: " + path + " (" + std::to_string(tr.size()) +
                        " spans)");
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
