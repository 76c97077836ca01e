// Micro-benchmarks (google-benchmark) of every RNG building block:
// twisters, normal transforms, the gamma sampler and the Listing 2
// work-item, per produce() call and per 64-initiation produce_word()
// (items/s is MAINLOOP initiations per second in both), plus the
// CreditRisk+ aggregation layer that consumes the gamma draws: the
// 64-bit Poisson engine against std::mt19937_64, ScenarioAggregator
// per obligor-scenario, and one served CreditRisk+ request. These are
// host-CPU throughput numbers for the library itself, not
// simulated-platform numbers.
//
// The BM_Kernel* rows run each rng::simd block kernel at every level
// this binary compiles and the host runs.
//
// With --json=PATH the binary additionally hand-times the Philox
// generation tiers — scalar next(), the dispatched generate_block()
// bulk path, and the block kernel at each level head-to-head — and
// writes the rows to BENCH_micro_rng.json, so the vectorization payoff
// is tracked as a machine-readable artifact like the figure benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/bits.h"
#include "core/gamma_work_item.h"
#include "finance/creditrisk_plus.h"
#include "finance/portfolio.h"
#include "rng/erfinv.h"
#include "rng/gamma.h"
#include "rng/icdf_bitwise.h"
#include "rng/mersenne_twister.h"
#include "rng/mt19937_64.h"
#include "rng/normal.h"
#include "rng/philox.h"
#include "rng/simd_kernels.h"
#include "serve/request.h"
#include "serve/sampling_server.h"

namespace {

using namespace dwi;

void BM_Mt19937(benchmark::State& state) {
  rng::MersenneTwister mt(rng::mt19937_params(), 1);
  for (auto _ : state) benchmark::DoNotOptimize(mt.next());
}
BENCHMARK(BM_Mt19937);

void BM_Mt521(benchmark::State& state) {
  rng::MersenneTwister mt(rng::mt521_params(), 1);
  for (auto _ : state) benchmark::DoNotOptimize(mt.next());
}
BENCHMARK(BM_Mt521);

void BM_AdaptedMtGated(benchmark::State& state) {
  // Worst case for the adapted twister: enable toggling every call.
  rng::AdaptedMersenneTwister mt(rng::mt19937_params(), 1);
  bool enable = false;
  for (auto _ : state) {
    enable = !enable;
    benchmark::DoNotOptimize(mt.next(enable));
  }
}
BENCHMARK(BM_AdaptedMtGated);

void BM_MarsagliaBray(benchmark::State& state) {
  rng::MersenneTwister mt(rng::mt19937_params(), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::marsaglia_bray_attempt(mt.next(), mt.next()));
  }
}
BENCHMARK(BM_MarsagliaBray);

void BM_BoxMuller(benchmark::State& state) {
  rng::MersenneTwister mt(rng::mt19937_params(), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::box_muller(mt.next(), mt.next()));
  }
}
BENCHMARK(BM_BoxMuller);

void BM_IcdfCuda(benchmark::State& state) {
  rng::MersenneTwister mt(rng::mt19937_params(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::normal_icdf_cuda(mt.next()));
  }
}
BENCHMARK(BM_IcdfCuda);

void BM_IcdfBitwise(benchmark::State& state) {
  rng::MersenneTwister mt(rng::mt19937_params(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::normal_icdf_bitwise(mt.next()));
  }
}
BENCHMARK(BM_IcdfBitwise);

void BM_ErfinvGiles(benchmark::State& state) {
  float x = -0.999f;
  for (auto _ : state) {
    x += 1e-4f;
    if (x >= 1.0f) x = -0.999f;
    benchmark::DoNotOptimize(rng::erfinv_giles(x));
  }
}
BENCHMARK(BM_ErfinvGiles);

void BM_GammaSampler(benchmark::State& state) {
  const auto v = static_cast<float>(state.range(0)) / 100.0f;
  rng::GammaSampler sampler(rng::GammaConstants::from_sector_variance(v),
                            rng::NormalTransform::kMarsagliaBray);
  rng::MersenneTwister mt(rng::mt19937_params(), 4);
  auto src = [&] { return mt.next(); };
  for (auto _ : state) benchmark::DoNotOptimize(sampler.sample(src));
}
BENCHMARK(BM_GammaSampler)->Arg(30)->Arg(139)->Arg(1000);

void BM_Philox(benchmark::State& state) {
  // Counter-based: the statelessness that avoids the GPU spill penalty
  // costs 10 rounds of 2x 32x32 multiplies per 4 outputs.
  rng::Philox p(1u, 0);
  for (auto _ : state) benchmark::DoNotOptimize(p.next());
}
BENCHMARK(BM_Philox);

void BM_PhiloxBlock(benchmark::State& state) {
  // The bulk path: counters encrypted straight into the buffer through
  // the dispatched kernel (8 abreast under AVX2).
  rng::Philox p(1u, 0);
  std::vector<std::uint32_t> buf(4096);
  for (auto _ : state) {
    p.generate_block(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_PhiloxBlock);

/// A counter that reports the time per item of `count` items.
benchmark::Counter time_per(double count) {
  return benchmark::Counter(
      count, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// generate_block in 2048-word calls, the work-item prerun's chunk:
/// arg is the period exponent (19937 or 521). The per_word counter
/// is the time per generated word.
void BM_MtBlock(benchmark::State& state) {
  rng::MersenneTwister mt(state.range(0) == 521 ? rng::mt521_params()
                                                : rng::mt19937_params(),
                          1);
  std::vector<std::uint32_t> buf(2048);
  for (auto _ : state) {
    mt.generate_block(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  const auto words = static_cast<double>(state.iterations()) *
                     static_cast<double>(buf.size());
  state.counters["per_word"] = time_per(words);
}
BENCHMARK(BM_MtBlock)->Arg(19937)->Arg(521);

void BM_GammaWorkItemStep(benchmark::State& state) {
  core::GammaWorkItemConfig cfg;
  cfg.app = rng::config(rng::ConfigId::kConfig1);
  cfg.outputs_per_sector = 1u << 28;  // endless; 4x fits limit_max
  core::GammaWorkItem wi(cfg);
  float v = 0.0f;
  for (auto _ : state) benchmark::DoNotOptimize(wi.produce(&v));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GammaWorkItemStep);

rng::ConfigId config_arg(std::int64_t c) {
  static constexpr rng::ConfigId kIds[] = {
      rng::ConfigId::kConfig1, rng::ConfigId::kConfig2,
      rng::ConfigId::kConfig3, rng::ConfigId::kConfig4};
  return kIds[c - 1];
}

/// The KernelSim prerun's view of the work-item: 64 MAINLOOP
/// initiations per call as one accept word. Args: Table III config
/// (1-4), then 0 for accept bits only (values null, as in an untraced
/// Table III simulation, so the α-correction never runs) or 1 to copy
/// the values out too.
void BM_GammaWorkItemProduceWord(benchmark::State& state) {
  core::GammaWorkItemConfig cfg;
  cfg.app = rng::config(config_arg(state.range(0)));
  cfg.outputs_per_sector = 1u << 28;  // endless; 4x fits limit_max
  core::GammaWorkItem wi(cfg);
  float values[64];
  float* out = state.range(1) != 0 ? values : nullptr;
  std::uint64_t initiations = 0;
  for (auto _ : state) {
    unsigned ran = 0;
    benchmark::DoNotOptimize(wi.produce_word(~std::uint64_t{0}, out, ran));
    initiations += ran;
  }
  benchmark::DoNotOptimize(values);
  state.SetItemsProcessed(static_cast<std::int64_t>(initiations));
  state.counters["per_init"] = time_per(static_cast<double>(initiations));
}
BENCHMARK(BM_GammaWorkItemProduceWord)
    ->ArgsProduct({{1, 2, 3, 4}, {0, 1}});

/// The same accept-bit stream in the paper geometry perfbench paper_sim
/// and table3_runtime simulate: 240 sectors of 640 outputs per
/// work-item (v = 1.39), so a work-item ends every ~200k initiations and
/// each sector exit lands inside a prerun fill. Arg: Table III config
/// (1-4); bits only. A finished work-item is rebuilt outside the timing.
void BM_GammaWorkItemProduceWordSectors(benchmark::State& state) {
  core::GammaWorkItemConfig cfg;
  cfg.app = rng::config(config_arg(state.range(0)));
  cfg.sector_variances.assign(240, 1.39f);
  cfg.outputs_per_sector = 640;
  auto wi = std::make_unique<core::GammaWorkItem>(cfg);
  std::uint64_t initiations = 0;
  for (auto _ : state) {
    unsigned ran = 0;
    benchmark::DoNotOptimize(wi->produce_word(~std::uint64_t{0}, nullptr, ran));
    initiations += ran;
    if (wi->finished()) {
      state.PauseTiming();
      ++cfg.seed;
      wi = std::make_unique<core::GammaWorkItem>(cfg);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(initiations));
  state.counters["per_init"] = time_per(static_cast<double>(initiations));
}
BENCHMARK(BM_GammaWorkItemProduceWordSectors)->DenseRange(1, 4);

// --- Prerun stages, one 2048-iteration chunk each ----------------------

constexpr std::size_t kChunk = 2048;

std::vector<std::uint32_t> mt_words(std::uint32_t seed) {
  rng::MersenneTwister mt(rng::mt19937_params(), seed);
  std::vector<std::uint32_t> w(kChunk);
  mt.generate_block(w.data(), w.size());
  return w;
}

/// Valid Marsaglia-Bray normals, the predicate's input.
std::vector<float> valid_normals() {
  rng::MersenneTwister mt(rng::mt19937_params(), 9);
  std::vector<float> n;
  while (n.size() < kChunk) {
    const rng::NormalAttempt a =
        rng::marsaglia_bray_attempt(mt.next(), mt.next());
    if (a.valid) n.push_back(a.value);
  }
  return n;
}

/// Normal stage over one chunk, valid normals compacted: arg 1 is
/// Marsaglia-Bray (Config1/2), arg 3 the bitwise ICDF (Config3/4). Per
/// attempt.
void BM_PrerunNormal(benchmark::State& state) {
  const rng::NormalTransform t = rng::config(config_arg(state.range(0)))
                                     .fpga_transform;
  const auto ua = mt_words(1), ub = mt_words(2);
  std::vector<float> n0(kChunk);
  std::vector<std::uint64_t> valid(kChunk / 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::normal_attempt_block(
        t, ua.data(), ub.data(), kChunk, n0.data(), valid.data()));
    benchmark::ClobberMemory();
  }
  state.counters["per_lane"] =
      time_per(static_cast<double>(state.iterations()) * kChunk);
}
BENCHMARK(BM_PrerunNormal)->Arg(1)->Arg(3);

/// Marsaglia-Tsang predicate over one chunk of valid normals at the
/// representative sector variance v = 1.39. Per lane.
void BM_PrerunPredicate(benchmark::State& state) {
  const auto k = rng::GammaConstants::from_sector_variance(1.39f);
  const auto n0 = valid_normals();
  const auto u1 = mt_words(3);
  std::vector<float> value(kChunk);
  std::vector<std::uint64_t> ok(kChunk / 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::simd::active_kernels().gamma_attempt_block(
        n0.data(), u1.data(), kChunk, k, value.data(), ok.data()));
    benchmark::ClobberMemory();
  }
  state.counters["per_lane"] =
      time_per(static_cast<double>(state.iterations()) * kChunk);
}
BENCHMARK(BM_PrerunPredicate);

/// What is left between the stages over one chunk: the accept flags
/// deposited onto the valid bits as the tape words (every fill), and
/// the accepted candidates compacted (only when a value is read). The
/// valid normals' compaction runs inside the normal stage. Per attempt.
void BM_PrerunCompaction(benchmark::State& state) {
  const auto ua = mt_words(1), ub = mt_words(2), u1 = mt_words(3);
  std::vector<float> n0(kChunk), g(kChunk), out(kChunk);
  std::vector<std::uint64_t> valid(kChunk / 64), ok(kChunk / 64 + 1);
  const std::size_t n_valid = rng::normal_attempt_block(
      rng::NormalTransform::kMarsagliaBray, ua.data(), ub.data(), kChunk,
      n0.data(), valid.data());
  rng::simd::active_kernels().gamma_attempt_block(
      n0.data(), u1.data(), n_valid,
      rng::GammaConstants::from_sector_variance(1.39f), g.data(), ok.data());
  std::vector<std::uint64_t> words(kChunk / 64);
  for (auto _ : state) {
    std::size_t j = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
      const auto n = static_cast<unsigned>(std::popcount(valid[w]));
      std::uint64_t a = ok[j / 64] >> (j % 64);
      if (j % 64 != 0) a |= ok[j / 64 + 1] << (64 - j % 64);
      words[w] = deposit_bits(a & low_bits(n), valid[w]);
      j += n;
    }
    benchmark::DoNotOptimize(
        rng::simd::active_kernels().compact_block(g.data(), ok.data(), n_valid,
                                                  out.data()));
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_lane"] =
      time_per(static_cast<double>(state.iterations()) * kChunk);
}
BENCHMARK(BM_PrerunCompaction);

// --- CreditRisk+ aggregation layer ------------------------------------

void BM_StdMt19937_64(benchmark::State& state) {
  std::mt19937_64 mt(1);
  for (auto _ : state) benchmark::DoNotOptimize(mt());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMt19937_64);

void BM_Mt19937_64Block(benchmark::State& state) {
  rng::Mt19937_64 mt(1);
  std::vector<std::uint64_t> buf(4096);
  for (auto _ : state) {
    mt.generate_block(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Mt19937_64Block);

/// The eight sectors of bench/pipeline_creditrisk's book and of
/// perfbench serve_heavy's CreditRisk+ book.
std::vector<finance::Sector> eight_sectors() {
  return {{1.39, "representative"}, {0.8, "stable"},   {1.1, "cyclical"},
          {1.6, "volatile"},        {0.5, "utilities"}, {2.0, "emerging"},
          {1.39, "financials"},     {0.9, "industrial"}};
}

/// The 12-obligor book of bench/pipeline_creditrisk and perfbench
/// creditrisk_pipeline, and a 4096-scenario wave of its gamma rows
/// (one run_piped wave).
constexpr std::size_t kWaveRows = 4096;

finance::Portfolio pipeline_book() {
  return finance::Portfolio::synthetic(12, eight_sectors(), 1);
}

std::vector<double> wave_rows(const finance::Portfolio& book) {
  const std::size_t K = book.num_sectors();
  std::vector<double> rows(kWaveRows * K);
  std::mt19937_64 draw_rng(11);
  for (std::size_t r = 0; r < kWaveRows; ++r) {
    for (std::size_t k = 0; k < K; ++k) {
      const double v = book.sectors()[k].variance;
      rows[r * K + k] = std::gamma_distribution<double>(1.0 / v, v)(draw_rng);
    }
  }
  return rows;
}

/// Seconds per obligor-scenario over `rows` scenarios a pass: the
/// `per_obligor_scenario` counter docs/PERF.md tracks.
void per_obligor_scenario(benchmark::State& state,
                          const finance::Portfolio& book, std::size_t rows) {
  const auto items = static_cast<double>(state.iterations()) *
                     static_cast<double>(rows * book.num_obligors());
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  state.counters["per_obligor_scenario"] = benchmark::Counter(
      items, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// finance::ScenarioAggregator::consume_row over the wave: intensity,
/// Poisson draws and loss sum one scenario at a time.
void BM_ScenarioAggregatorRow(benchmark::State& state) {
  const finance::Portfolio book = pipeline_book();
  const std::vector<double> rows = wave_rows(book);
  const std::size_t K = book.num_sectors();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    // A fresh aggregator per pass keeps the loss vector bounded; its
    // construction is well under 1% of the pass.
    finance::ScenarioAggregator agg(book, ++seed);
    for (std::size_t r = 0; r < kWaveRows; ++r) agg.consume_row(&rows[r * K]);
    benchmark::DoNotOptimize(agg.scenarios());
  }
  per_obligor_scenario(state, book, kWaveRows);
}
BENCHMARK(BM_ScenarioAggregatorRow)->Unit(benchmark::kMillisecond);

/// The Poisson half alone, as run_piped's serial consumer calls it:
/// consume() over the wave's intensities in one call.
void BM_ScenarioAggregatorConsume(benchmark::State& state) {
  const finance::Portfolio book = pipeline_book();
  const std::vector<double> rows = wave_rows(book);
  std::vector<double> lambda(kWaveRows * book.num_obligors());
  finance::ScenarioAggregator(book, 1)
      .intensities(rows.data(), kWaveRows, lambda.data());
  std::uint64_t seed = 0;
  for (auto _ : state) {
    finance::ScenarioAggregator agg(book, ++seed);
    agg.consume(lambda.data(), kWaveRows);
    benchmark::DoNotOptimize(agg.scenarios());
  }
  per_obligor_scenario(state, book, kWaveRows);
}
BENCHMARK(BM_ScenarioAggregatorConsume)->Unit(benchmark::kMicrosecond);

/// The intensity half alone, on float rows as run_piped's intensity
/// chunks call it: the wave in one call.
void BM_ScenarioAggregatorIntensities(benchmark::State& state) {
  const finance::Portfolio book = pipeline_book();
  const std::vector<double> rows = wave_rows(book);
  const std::vector<float> frows(rows.begin(), rows.end());
  std::vector<double> lambda(kWaveRows * book.num_obligors());
  const finance::ScenarioAggregator agg(book, 1);
  for (auto _ : state) {
    agg.intensities(frows.data(), kWaveRows, lambda.data());
    benchmark::DoNotOptimize(lambda.data());
    benchmark::ClobberMemory();
  }
  per_obligor_scenario(state, book, kWaveRows);
}
BENCHMARK(BM_ScenarioAggregatorIntensities)->Unit(benchmark::kMicrosecond);

/// One served CreditRisk+ request as perfbench serve_heavy sends it
/// (48 obligors, eight sectors, 2000 scenarios), computed directly
/// through serve::RequestTraits: sector sampling on the exec pool
/// (DWI_THREADS sets its size), intensities and Poisson draws, with
/// no queueing. Wall time per request.
void BM_CreditRiskRequestCompute(benchmark::State& state) {
  const serve::SamplingServer server;
  const serve::CreditRiskRequest req{
      1,
      std::make_shared<const finance::Portfolio>(
          finance::Portfolio::synthetic(48, eight_sectors(), 1)),
      2000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::RequestTraits<serve::CreditRiskRequest>::compute(req, server));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(req.num_scenarios));
}
BENCHMARK(BM_CreditRiskRequestCompute)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Block kernels, one row per level ----------------------------------
// BM_Kernel<Name>/<level>: one rng::simd kernel through the table of
// each level this binary compiles and this host runs, on the same
// chunk at every level, so the levels (and revisions) compare row by
// row. per_lane is the time per input lane (per word for the
// generators, per obligor-scenario for the intensities).

/// The inputs every kernel row reads: one chunk of prerun-like lanes.
struct KernelChunk {
  std::vector<std::uint32_t> ua = mt_words(1), ub = mt_words(2),
                             u1 = mt_words(3), u2 = mt_words(4);
  std::vector<float> n0 = valid_normals(), s, g, f = std::vector<float>(kChunk);
  std::vector<std::uint64_t> ok = std::vector<std::uint64_t>(kChunk / 64),
                             flags = ok;
  rng::GammaConstants k = rng::GammaConstants::from_sector_variance(1.39f);

  KernelChunk() {
    for (const std::uint32_t u : ua) {
      s.push_back((static_cast<float>(u >> 8) + 1.0f) / 16777218.0f);
    }
    g.resize(kChunk);
    rng::simd::kernels(rng::simd::Level::kScalar)
        ->gamma_attempt_block(n0.data(), u1.data(), kChunk, k, g.data(),
                              ok.data());
  }
};

struct KernelRow {
  const char* name;
  double lanes;  ///< per call
  void (*run)(const rng::simd::Kernels& t, KernelChunk& c);
};

/// The MT state after seeding `p`, for whole-block generator rows.
std::vector<std::uint32_t> mt_state(const rng::MtParams& p) {
  rng::MersenneTwister mt(p, 1);
  std::vector<std::uint32_t> s(p.n);
  mt.generate_block(s.data(), s.size());
  return s;
}

const KernelRow kKernelRows[] = {
    {"MbAttempt", kChunk,
     [](const rng::simd::Kernels& t, KernelChunk& c) {
       benchmark::DoNotOptimize(t.mb_attempt_block(
           c.ua.data(), c.ub.data(), kChunk, c.f.data(), c.flags.data()));
     }},
    {"MbFinish", kChunk,
     [](const rng::simd::Kernels& t, KernelChunk& c) {
       c.f = c.n0;
       t.mb_finish_block(c.f.data(), c.s.data(), kChunk);
     }},
    {"IcdfCuda", kChunk,
     [](const rng::simd::Kernels& t, KernelChunk& c) {
       t.icdf_cuda_block(c.ua.data(), kChunk, c.f.data());
     }},
    {"IcdfBitwise", kChunk,
     [](const rng::simd::Kernels& t, KernelChunk& c) {
       benchmark::DoNotOptimize(t.icdf_bitwise_block(
           c.ua.data(), kChunk, c.f.data(), c.flags.data()));
     }},
    {"GammaAttempt", kChunk,
     [](const rng::simd::Kernels& t, KernelChunk& c) {
       benchmark::DoNotOptimize(t.gamma_attempt_block(
           c.n0.data(), c.u1.data(), kChunk, c.k, c.f.data(), c.flags.data()));
     }},
    {"Compact", kChunk,
     [](const rng::simd::Kernels& t, KernelChunk& c) {
       benchmark::DoNotOptimize(
           t.compact_block(c.g.data(), c.ok.data(), kChunk, c.f.data()));
     }},
    {"GammaCorrect", kChunk,
     [](const rng::simd::Kernels& t, KernelChunk& c) {
       c.f = c.g;
       t.gamma_correct_block(c.f.data(), c.u2.data(), kChunk, c.k);
     }},
    {"MtGenerate19937", 3 * 624,
     [](const rng::simd::Kernels& t, KernelChunk&) {
       static const rng::MtParams p = rng::mt19937_params();
       static std::vector<std::uint32_t> state = mt_state(p), out(3 * 624);
       t.mt_generate_block(state.data(), out.size(), p, out.data());
     }},
    {"MtGenerate521", 120 * 17,
     [](const rng::simd::Kernels& t, KernelChunk&) {
       static const rng::MtParams p = rng::mt521_params();
       static std::vector<std::uint32_t> state = mt_state(p), out(120 * 17);
       t.mt_generate_block(state.data(), out.size(), p, out.data());
     }},
    {"Mt64Refill", rng::mt64::kN,
     [](const rng::simd::Kernels& t, KernelChunk&) {
       static std::vector<std::uint64_t> state(rng::mt64::kN, 0x9e3779b9u),
           block(rng::mt64::kN);
       t.mt64_refill(state.data(), block.data());
     }},
    {"PoissonFirstDrawScan", kChunk,
     [](const rng::simd::Kernels& t, KernelChunk&) {
       // A CreditRisk+ book's lanes: λ = 0.01, so one lane in a hundred
       // stops the scan, and the scan resumes after it.
       static const std::vector<double> lambda(kChunk, 0.01);
       static const std::vector<std::uint64_t> words = [] {
         std::mt19937_64 rng(3);
         std::vector<std::uint64_t> w(kChunk);
         for (auto& x : w) x = rng();
         return w;
       }();
       for (std::size_t i = 0; i < kChunk; ++i) {
         i += t.poisson_first_draw_scan(words.data() + i, lambda.data() + i,
                                        kChunk - i);
       }
     }},
    {"Intensity", 256 * 12,
     [](const rng::simd::Kernels& t, KernelChunk&) {
       // A 12-obligor, 8-sector book (the pipeline's shape) over 256
       // float rows of the pipeline book's gamma draws.
       static const std::vector<double> coeff = [] {
         std::mt19937_64 rng(7);
         std::vector<double> c(12 * 10);
         for (double& x : c) x = std::uniform_real_distribution(0.0, 0.2)(rng);
         return c;
       }();
       static const rng::simd::IntensityBook book{
           12, 8, coeff.data(), coeff.data() + 12, coeff.data() + 24};
       static const std::vector<float> rows = [] {
         const std::vector<double> d = wave_rows(pipeline_book());
         return std::vector<float>(d.begin(), d.begin() + 256 * 8);
       }();
       static std::vector<double> lambda(256 * 12);
       t.intensity_block_f32(book, rows.data(), 256, lambda.data());
     }},
    {"Philox", 4096,
     [](const rng::simd::Kernels& t, KernelChunk&) {
       const std::uint32_t counter[4] = {0, 0, 0, 0};
       const std::uint32_t key[2] = {1u, 0u};
       static std::vector<std::uint32_t> out(4096);
       t.philox_block(counter, key, out.size() / 4, out.data());
       benchmark::DoNotOptimize(out.data());
     }},
};

void BM_Kernel(benchmark::State& state, const KernelRow& row,
               rng::simd::Level level) {
  const rng::simd::Kernels& t = *rng::simd::kernels(level);
  KernelChunk chunk;
  for (auto _ : state) {
    row.run(t, chunk);
    benchmark::DoNotOptimize(chunk.f.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_lane"] =
      time_per(static_cast<double>(state.iterations()) * row.lanes);
}

/// The levels this binary compiles and this host runs, scalar first.
std::vector<rng::simd::Level> host_levels() {
  std::vector<rng::simd::Level> out;
  for (const auto level : {rng::simd::Level::kScalar, rng::simd::Level::kAvx2,
                           rng::simd::Level::kAvx512}) {
    if (level <= rng::simd::host_level()) out.push_back(level);
  }
  return out;
}

void register_kernel_rows() {
  for (const KernelRow& row : kKernelRows) {
    for (const rng::simd::Level level : host_levels()) {
      const std::string name = std::string("BM_Kernel") + row.name + "/" +
                               rng::simd::to_string(level);
      benchmark::RegisterBenchmark(name.c_str(), BM_Kernel, row, level);
    }
  }
}

// --- BENCH_micro_rng.json: Philox generation-tier rows -----------------

/// Best-of-N wall-clock throughput of `run` (which produces `outputs`
/// uniforms per call), in outputs per second.
template <typename Fn>
double best_outputs_per_second(Fn&& run, std::size_t outputs) {
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (s > 0.0) best = std::max(best, static_cast<double>(outputs) / s);
  }
  return best;
}

void write_micro_rng_json(const std::string& path) {
  constexpr std::size_t kOutputs = std::size_t{1} << 22;  // 4M per rep
  std::vector<std::uint32_t> buf(kOutputs);

  // Row 1: scalar next() — one output per call, block buffered.
  const double scalar_next = best_outputs_per_second(
      [&] {
        rng::Philox p(1u, 0);
        std::uint32_t acc = 0;
        for (std::size_t i = 0; i < kOutputs; ++i) acc ^= p.next();
        benchmark::DoNotOptimize(acc);
      },
      kOutputs);

  // Row 2: generate_block() through the runtime-dispatched kernel.
  const double block_dispatched = best_outputs_per_second(
      [&] {
        rng::Philox p(1u, 0);
        p.generate_block(buf.data(), buf.size());
        benchmark::DoNotOptimize(buf.data());
      },
      kOutputs);

  // Then the block kernel through each level's table, bypassing dispatch.
  const std::uint32_t counter[4] = {0, 0, 0, 0};
  const std::uint32_t key[2] = {1u, 0u};
  std::vector<std::pair<std::string, double>> kernel_rows;
  for (const rng::simd::Level level : host_levels()) {
    const rng::simd::Kernels& t = *rng::simd::kernels(level);
    kernel_rows.emplace_back(
        std::string("philox_block_kernel_") + rng::simd::to_string(level),
        best_outputs_per_second(
            [&] {
              t.philox_block(counter, key, kOutputs / 4, buf.data());
              benchmark::DoNotOptimize(buf.data());
            },
            kOutputs));
  }

  auto f = bench::open_bench_json(path);
  if (!f) return;
  bench::JsonWriter j(f);
  j.begin_object();
  bench::write_bench_header(j, "micro_rng", 1);
  j.kv("simd_level", rng::simd::to_string(rng::simd::active_level()));
  j.key("rows");
  j.begin_array();
  kernel_rows.insert(kernel_rows.begin(),
                     {{"philox_next_scalar", scalar_next},
                      {"philox_generate_block", block_dispatched}});
  for (const auto& [name, ops] : kernel_rows) {
    j.begin_object();
    j.kv("name", name);
    j.kv("outputs_per_second", ops);
    j.kv("ns_per_output", 1e9 / ops);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  f << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json=PATH (ours), hand the rest to google-benchmark.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a(argv[i]);
    if (a.rfind("--json=", 0) == 0) {
      json_path = std::string(a.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  register_kernel_rows();
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) write_micro_rng_json(json_path);
  return 0;
}
