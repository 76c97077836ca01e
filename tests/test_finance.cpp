// Tests for the CreditRisk+ application: portfolio validation, analytic
// moments vs Monte-Carlo, risk measures, the buffered gamma source
// that consumes FPGA-pipeline output end to end, and the split
// ScenarioAggregator against the std::poisson_distribution loop it
// replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/decoupled_work_items.h"
#include "exec/thread_pool.h"
#include "finance/creditrisk_plus.h"
#include "finance/portfolio.h"

namespace dwi::finance {
namespace {

Portfolio tiny_portfolio() {
  std::vector<Sector> sectors = {{1.39, "representative"}};
  std::vector<Obligor> obligors = {
      {100.0, 0.02, {0.6}},
      {250.0, 0.01, {0.8}},
      {50.0, 0.05, {0.3}},
  };
  return Portfolio(std::move(sectors), std::move(obligors));
}

TEST(Portfolio, ExpectedLossClosedForm) {
  const auto p = tiny_portfolio();
  EXPECT_DOUBLE_EQ(p.expected_loss(),
                   100.0 * 0.02 + 250.0 * 0.01 + 50.0 * 0.05);
}

TEST(Portfolio, AnalyticVarianceClosedForm) {
  const auto p = tiny_portfolio();
  const double idio = 100.0 * 100.0 * 0.02 + 250.0 * 250.0 * 0.01 +
                      50.0 * 50.0 * 0.05;
  const double s1 = 0.6 * 0.02 * 100.0 + 0.8 * 0.01 * 250.0 +
                    0.3 * 0.05 * 50.0;
  EXPECT_NEAR(p.analytic_loss_variance(), idio + 1.39 * s1 * s1, 1e-9);
}

TEST(Portfolio, ValidatesInputs) {
  EXPECT_THROW(Portfolio({}, {{1.0, 0.1, {}}}), Error);
  EXPECT_THROW(Portfolio({{1.0, ""}}, {}), Error);
  EXPECT_THROW(Portfolio({{1.0, ""}}, {{1.0, 1.5, {0.5}}}), Error);
  EXPECT_THROW(Portfolio({{1.0, ""}}, {{1.0, 0.1, {0.7, 0.7}}}), Error);
  EXPECT_THROW(Portfolio({{-1.0, ""}}, {{1.0, 0.1, {0.5}}}), Error);
}

TEST(Portfolio, IdiosyncraticWeightComplement) {
  Obligor o{1.0, 0.1, {0.2, 0.3}};
  EXPECT_NEAR(o.idiosyncratic_weight(), 0.5, 1e-12);
}

TEST(Portfolio, SyntheticIsReproducible) {
  const auto a = Portfolio::synthetic(50, {{1.39, "s"}}, 42);
  const auto b = Portfolio::synthetic(50, {{1.39, "s"}}, 42);
  EXPECT_EQ(a.num_obligors(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.obligors()[i].exposure, b.obligors()[i].exposure);
  }
}

TEST(LossDistribution, RiskMeasures) {
  std::vector<double> losses;
  for (int i = 1; i <= 100; ++i) losses.push_back(static_cast<double>(i));
  LossDistribution d(std::move(losses));
  EXPECT_DOUBLE_EQ(d.mean(), 50.5);
  EXPECT_DOUBLE_EQ(d.value_at_risk(0.95), 95.0);
  // ES(0.95): mean of {95..100}.
  EXPECT_NEAR(d.expected_shortfall(0.95), 97.5, 1e-12);
  EXPECT_GE(d.expected_shortfall(0.95), d.value_at_risk(0.95));
}

TEST(LossDistribution, SortsByATotalOrderAtEveryThreadCount) {
  // Every value, each sign of zero and NaN: ascending, −0 before +0,
  // NaNs last, and the same bytes at every thread count. A chunk holds
  // at least 1024 losses, so 1000 sort in one piece, 3000 in up to two
  // chunks and 9000 in up to eight, with merges of pairs of pairs.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> order = {-inf, -1.5, -denorm, -0.0, 0.0,
                                     denorm, 1.0, 3.0, inf};
  std::mt19937_64 rng(4);
  for (const int size : {1000, 3000, 9000}) {
    std::vector<double> losses;
    for (int i = 0; i < size; ++i) {
      const std::uint64_t r = rng() % (order.size() + 2);
      losses.push_back(r < order.size()    ? order[r]
                       : r == order.size() ? nan
                                           : -nan);
    }
    std::vector<double> first;
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE("size=" + std::to_string(size) +
                   " threads=" + std::to_string(threads));
      exec::set_thread_count(threads);
      const LossDistribution d(losses);
      std::size_t at = 0;
      for (const double x : d.losses()) {
        if (std::isnan(x)) break;
        while (at < order.size() && std::bit_cast<std::uint64_t>(order[at]) !=
                                        std::bit_cast<std::uint64_t>(x)) {
          ++at;
        }
        ASSERT_LT(at, order.size()) << "out of order";
      }
      const auto nans = std::count_if(d.losses().begin(), d.losses().end(),
                                      [](double x) { return std::isnan(x); });
      EXPECT_TRUE(std::all_of(d.losses().end() - nans, d.losses().end(),
                              [](double x) { return std::isnan(x); }));
      if (first.empty()) {
        first = d.losses();
      } else {
        EXPECT_EQ(0, std::memcmp(first.data(), d.losses().data(),
                                 first.size() * sizeof(double)));
      }
    }
  }
  exec::set_thread_count(0);
}

TEST(LossDistribution, MatchesAKeySortAtEveryZeroShareSizeAndPool) {
  // The oracle: std::sort by the total-order key (a double's bits
  // mapped one to one onto integers in the numbers' order, both NaN
  // signs after +inf), compared byte for byte. The constructor sorts
  // only the losses that are not +0.0, in chunks of at least 1024, so
  // those counts sit below, at and above 1, 2 and 8 chunks; +0.0 makes
  // up 0%, 50%, 84% (perfbench's CreditRisk+ book) or all of the rest.
  const auto key = [](double x) {
    const auto b = std::bit_cast<std::uint64_t>(x);
    return ((b >> 63) != 0 ? ~b : b | std::uint64_t{1} << 63) -
           0x000F'FFFF'FFFF'FFFF;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> special = {-inf, -2.5, -denorm, -0.0,
                                       denorm, inf,  nan,     -nan};
  std::mt19937_64 rng(9);
  const auto book = [&](std::size_t others, std::size_t zeros) {
    std::vector<double> losses(zeros, 0.0);
    for (std::size_t i = 0; i < others; ++i) {
      const std::uint64_t r = rng() % 16;
      losses.push_back(r < special.size()
                           ? special[r]
                           : 0.5 * static_cast<double>(1 + rng() % 111));
    }
    std::shuffle(losses.begin(), losses.end(), rng);
    return losses;
  };
  std::vector<std::vector<double>> books;
  for (const std::size_t chunks : {1u, 2u, 8u}) {
    for (const std::size_t others :
         {1024 * chunks - 1, 1024 * chunks, 1024 * chunks + 1}) {
      for (const std::size_t percent : {0u, 50u, 84u}) {
        books.push_back(book(others, others * percent / (100 - percent)));
      }
    }
  }
  for (const std::size_t zeros : {1u, 1024u, 8193u}) {
    books.push_back(book(0, zeros));
  }
  for (const std::vector<double>& losses : books) {
    std::vector<double> want = losses;
    std::sort(want.begin(), want.end(),
              [&](double a, double b) { return key(a) < key(b); });
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      exec::set_thread_count(threads);
      const LossDistribution d(losses);
      ASSERT_EQ(0, std::memcmp(want.data(), d.losses().data(),
                               want.size() * sizeof(double)))
          << "size=" << losses.size() << " threads=" << threads;
    }
  }
  exec::set_thread_count(0);
}

TEST(LossDistribution, ExpectedShortfallIsNaNWhenNaNsHoldTheTail) {
  // An infinite exposure's NaN losses sort last. A tail that holds one,
  // whether or not the VaR itself is NaN, has a NaN mean.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> losses;
  for (int i = 1; i <= 999; ++i) losses.push_back(static_cast<double>(i));
  losses.push_back(nan);
  const LossDistribution d(losses);
  EXPECT_EQ(d.value_at_risk(0.95), 950.0);
  EXPECT_TRUE(std::isnan(d.expected_shortfall(0.95)));
  EXPECT_TRUE(std::isnan(d.value_at_risk(0.9999)));
  EXPECT_TRUE(std::isnan(d.expected_shortfall(0.9999)));
  losses.pop_back();
  EXPECT_EQ(LossDistribution(losses).expected_shortfall(0.95), 974.5);
}

TEST(CreditRiskPlus, McMatchesAnalyticMoments) {
  const auto p = Portfolio::synthetic(
      200, {{1.39, "a"}, {0.5, "b"}, {2.0, "c"}}, 7);
  McConfig mc;
  mc.num_scenarios = 40'000;
  const auto dist = simulate_losses(p, mc, sampler_gamma_source(p, 11));
  EXPECT_NEAR(dist.mean() / p.expected_loss(), 1.0, 0.03);
  EXPECT_NEAR(dist.variance() / p.analytic_loss_variance(), 1.0, 0.12);
}

TEST(CreditRiskPlus, HigherSectorVarianceFattensTail) {
  // §II-D4: bigger sector variance → worse tail risk at equal mean.
  auto make = [](double v) {
    std::vector<Obligor> obligors(100, Obligor{100.0, 0.02, {0.9}});
    return Portfolio({{v, "s"}}, std::move(obligors));
  };
  const auto calm = make(0.1);
  const auto wild = make(4.0);
  McConfig mc;
  mc.num_scenarios = 20'000;
  const auto d_calm =
      simulate_losses(calm, mc, sampler_gamma_source(calm, 3));
  const auto d_wild =
      simulate_losses(wild, mc, sampler_gamma_source(wild, 3));
  EXPECT_NEAR(d_calm.mean(), d_wild.mean(), 0.15 * d_calm.mean());
  EXPECT_GT(d_wild.value_at_risk(0.999), 1.5 * d_calm.value_at_risk(0.999));
}

TEST(CreditRiskPlus, BufferedSourceMatchesLayout) {
  std::vector<float> buffer = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  const auto src = buffered_gamma_source(std::span<const float>(buffer), 3);
  EXPECT_DOUBLE_EQ(src(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(src(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(src(1, 1), 5.0);
  EXPECT_THROW(src(2, 0), Error);
}

// --- ScenarioAggregator against the std::poisson_distribution loop -------

/// λ per scenario and obligor as the aggregation loop built it before
/// the intensity/Poisson split: Obligor::idiosyncratic_weight(), then
/// the sector terms in order, then the product by p.
std::vector<double> old_lambdas(const Portfolio& p,
                                const std::vector<double>& rows) {
  const std::size_t K = p.num_sectors();
  std::vector<double> out;
  for (std::size_t s = 0; s * K < rows.size(); ++s) {
    for (const Obligor& o : p.obligors()) {
      double factor = o.idiosyncratic_weight();
      for (std::size_t k = 0; k < K; ++k) {
        factor += o.sector_weights[k] * rows[s * K + k];
      }
      out.push_back(o.default_probability * factor);
    }
  }
  return out;
}

/// The old loop's draws: a fresh std::poisson_distribution per obligor
/// over one std::mt19937_64. Returns each obligor's loss,
/// scenario-major.
std::vector<double> std_poisson_obligor_losses(const Portfolio& p,
                                               std::uint64_t seed,
                                               const std::vector<double>& rows) {
  std::mt19937_64 engine(seed);
  const std::vector<double> lambdas = old_lambdas(p, rows);
  std::vector<double> out;
  for (std::size_t j = 0; j < lambdas.size(); ++j) {
    unsigned count = 0;
    if (lambdas[j] > 0.0) {
      count = std::poisson_distribution<unsigned>(lambdas[j])(engine);
    } else {
      // libstdc++ asserts a positive mean in checked builds; unchecked,
      // a mean of 0 makes one uniform draw and returns 0.
      (void)std::generate_canonical<double, 53>(engine);
    }
    out.push_back(static_cast<double>(count) *
                  p.obligors()[j % p.num_obligors()].exposure);
  }
  return out;
}

/// Sorted scenario losses from per-obligor losses, summed in obligor
/// order as the aggregation does.
std::vector<double> sorted_totals(const std::vector<double>& obligor_losses,
                                  std::size_t N) {
  std::vector<double> totals;
  for (std::size_t s = 0; s * N < obligor_losses.size(); ++s) {
    double total = 0.0;
    for (std::size_t i = 0; i < N; ++i) total += obligor_losses[s * N + i];
    totals.push_back(total);
  }
  return LossDistribution(std::move(totals)).losses();
}

/// A seeded random book with every case the thresholds must keep
/// exact: λ = 0, λ up to ~30 across the λ = 12 switch, and exposures
/// from 0 and 1e-300 up to 1e300.
Portfolio random_book(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t K = 1 + rng() % 5;
  const std::size_t N = 1 + rng() % 24;
  std::vector<Sector> sectors(K, Sector{1.39, "s"});
  std::vector<Obligor> obligors;
  const double exposures[] = {0.0, 1e-300, 1e300, 1.0};
  for (std::size_t i = 0; i < N; ++i) {
    Obligor o;
    const auto kind = rng() % 8;
    o.exposure = kind < 4 ? exposures[kind] : std::exp(20.0 * unit(rng));
    const auto pk = rng() % 6;
    o.default_probability = pk == 0 ? 0.0 : pk == 1 ? 1.0 : unit(rng) * 0.3;
    double budget = unit(rng);
    for (std::size_t k = 0; k < K; ++k) {
      const double w = budget * unit(rng);
      o.sector_weights.push_back(w);
      budget -= w;
    }
    obligors.push_back(std::move(o));
  }
  return Portfolio(std::move(sectors), std::move(obligors));
}

void expect_bits_eq(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "value " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Checks the aggregator against the oracle on `rows`, four ways:
/// intensities() + consume() over uneven blocks with the intensities
/// and per-obligor losses, one consume() over all rows (a run_piped
/// wave) with per-obligor losses, consume_row(double), and
/// consume_row(float) on float rows. The per-obligor buffers start as
/// −1.0, so a lane consume() skips without writing its +0.0 shows.
void expect_matches_std_poisson(const Portfolio& p, std::uint64_t seed,
                                const std::vector<double>& rows) {
  const std::size_t K = p.num_sectors();
  const std::size_t N = p.num_obligors();
  const std::size_t n = rows.size() / K;
  const std::vector<double> want = std_poisson_obligor_losses(p, seed, rows);

  ScenarioAggregator split(p, seed);
  std::vector<double> lambda(n * N);
  std::vector<double> got(n * N, -1.0);
  for (std::size_t s = 0; s < n;) {
    const std::size_t b = std::min<std::size_t>(1 + s % 3, n - s);
    split.intensities(rows.data() + s * K, b, lambda.data() + s * N);
    split.consume(lambda.data() + s * N, b, got.data() + s * N);
    s += b;
  }
  // The intensities themselves: the oracle's λ, bit for bit.
  expect_bits_eq(lambda, old_lambdas(p, rows));
  expect_bits_eq(got, want);
  expect_bits_eq(std::move(split).finish().losses(), sorted_totals(want, N));

  ScenarioAggregator wave(p, seed);
  std::fill(got.begin(), got.end(), -1.0);
  wave.consume(lambda.data(), n, got.data());
  expect_bits_eq(got, want);
  expect_bits_eq(std::move(wave).finish().losses(), sorted_totals(want, N));

  ScenarioAggregator rowwise(p, seed);
  for (std::size_t s = 0; s < n; ++s) rowwise.consume_row(rows.data() + s * K);
  expect_bits_eq(std::move(rowwise).finish().losses(), sorted_totals(want, N));

  std::vector<float> frows(rows.size());
  std::vector<double> widened(rows.size());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    frows[j] = static_cast<float>(rows[j]);
    widened[j] = static_cast<double>(frows[j]);
  }
  ScenarioAggregator from_float(p, seed);
  for (std::size_t s = 0; s < n; ++s) {
    from_float.consume_row(frows.data() + s * K);
  }
  expect_bits_eq(std::move(from_float).finish().losses(),
                 sorted_totals(std_poisson_obligor_losses(p, seed, widened), N));
}

TEST(ScenarioAggregator, MatchesStdPoissonOnRandomBooks) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const Portfolio p = random_book(rng);
    std::uniform_real_distribution<double> draw(0.0, 30.0);
    std::vector<double> rows(64 * p.num_sectors());
    for (double& r : rows) r = rng() % 7 == 0 ? 0.0 : draw(rng);
    expect_matches_std_poisson(p, seed, rows);
    if (HasFatalFailure()) return;
  }
}

TEST(ScenarioAggregator, MatchesStdPoissonAroundTheRejectionSwitch) {
  // One obligor with p = 1 and all weight on the sector: λ = S exactly,
  // so the rows walk λ across libstdc++'s switch at 12.
  const Portfolio p({{1.39, "s"}}, {{1.0, 1.0, {1.0}}, {3.5, 0.0, {0.5}}});
  const std::vector<double> rows = {
      0.0,   1e-300, 1e-3, 1.0,  std::nextafter(12.0, 0.0), 12.0,
      std::nextafter(12.0, 13.0), 11.5, 12.5, 25.0, 200.0, 0.0,
      // The edges of consume()'s exp-free first draw.
      0x1p-60, 0x1p-53, 1e-17, 1e-9, 1.0 - 0x1p-53, 1.0};
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        ~std::uint64_t{0}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_matches_std_poisson(p, seed, rows);
    if (HasFatalFailure()) return;
  }
}

TEST(ScenarioAggregator, MatchesStdPoissonWhenLoadingsExceedOne) {
  // Portfolio accepts loadings summing to 1 + 1e-9, so w_0 < 0 and a
  // scenario with small sector draws has a (tiny) negative λ.
  const Portfolio p({{1.39, "a"}, {0.5, "b"}},
                    {{1.0, 1.0, {0.5, 0.5 + 1e-9}},
                     {2.0, 0.3, {0.25, 0.75 + 1e-9}},
                     {4.0, 1.0, {1.0 + 1e-9, 0.0}}});
  ASSERT_LT(p.obligors()[0].idiosyncratic_weight(), 0.0);
  const std::vector<double> rows = {0.0,   0.0,  1e-12, 0.0,  0.0, 1e-300,
                                    1e-9,  1e-9, 1.0,   1.0,  2.0, 0.5,
                                    1e-17, 0.0,  0.0,   1e-17};
  for (const std::uint64_t seed :
       {std::uint64_t{3}, std::uint64_t{5489}, ~std::uint64_t{0}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_matches_std_poisson(p, seed, rows);
    if (HasFatalFailure()) return;
  }
}

TEST(ScenarioAggregator, InfiniteExposureKeepsItsNaNLoss) {
  // Portfolio accepts e = +inf. A count-0 lane then loses 0 · ∞ = NaN,
  // so consume() may not skip it: a scenario's loss is NaN, or +inf
  // when that obligor defaults.
  const Portfolio p({{1.39, "a"}, {0.8, "b"}},
                    {{1.0, 0.01, {0.5, 0.2}},
                     {std::numeric_limits<double>::infinity(), 0.02, {0.3, 0.3}},
                     {3.0, 0.05, {0.0, 0.9}}});
  std::mt19937_64 rng(8);
  std::gamma_distribution<double> draw(1.0 / 1.39, 1.39);
  std::vector<double> rows(700 * p.num_sectors());
  for (double& r : rows) r = draw(rng);
  for (const std::uint64_t seed : {std::uint64_t{2}, std::uint64_t{5489}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_matches_std_poisson(p, seed, rows);
    if (HasFatalFailure()) return;
  }
  ScenarioAggregator agg(p, 2);
  for (std::size_t s = 0; s < 700; ++s) agg.consume_row(&rows[s * 2]);
  const LossDistribution dist = std::move(agg).finish();
  std::size_t nan = 0;
  for (const double loss : dist.losses()) {
    ASSERT_TRUE(std::isnan(loss) || loss == std::numeric_limits<double>::infinity());
    nan += std::isnan(loss);
  }
  EXPECT_GT(nan, 600u);
}

TEST(ScenarioAggregator, ObligorLossesOnTheContributionsPath) {
  // finance::shortfall_contributions calls consume() one scenario at a
  // time with a per-obligor buffer; on a low-intensity book nearly
  // every lane is skipped and must still read +0.0.
  const Portfolio p = Portfolio::synthetic(
      12, {{1.39, "a"}, {0.8, "b"}, {1.1, "c"}, {2.0, "d"}}, 1);
  std::mt19937_64 rng(21);
  std::vector<double> rows(900 * p.num_sectors());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const double v = p.sectors()[j % p.num_sectors()].variance;
    rows[j] = std::gamma_distribution<double>(1.0 / v, v)(rng);
  }
  const std::size_t N = p.num_obligors();
  const std::vector<double> want = std_poisson_obligor_losses(p, 4, rows);
  ScenarioAggregator agg(p, 4);
  std::vector<double> lambda(N);
  std::vector<double> got(want.size(), std::numeric_limits<double>::quiet_NaN());
  for (std::size_t s = 0; s < 900; ++s) {
    agg.intensities(&rows[s * p.num_sectors()], 1, lambda.data());
    agg.consume(lambda.data(), 1, &got[s * N]);
  }
  expect_bits_eq(got, want);
  const auto zeros = std::count_if(got.begin(), got.end(), [](double l) {
    return std::bit_cast<std::uint64_t>(l) == 0;
  });
  EXPECT_GT(zeros, static_cast<std::ptrdiff_t>(want.size() * 9 / 10));
}

TEST(ScenarioAggregator, LongWavesMixLargeMeansAndNaNRows) {
  // 1500-scenario waves (18000 lanes, dozens of engine refills) where
  // rows with a NaN draw (NaN λ: count 0) and rows with huge draws
  // (λ ≥ 12: libstdc++'s rejection method, a variable number of words)
  // fall among ordinary ones, so the scan stops and restarts at every
  // offset. simulate_losses, which runs 256-scenario blocks over a
  // GammaSource, must give the same losses.
  const Portfolio p = Portfolio::synthetic(
      12, {{1.39, "a"}, {0.8, "b"}, {1.1, "c"}, {2.0, "d"}}, 3);
  const std::size_t K = p.num_sectors();
  constexpr std::size_t kScenarios = 1500;
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{77}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::vector<double> rows(kScenarios * K);
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const double v = p.sectors()[j % K].variance;
      rows[j] = std::gamma_distribution<double>(1.0 / v, v)(rng);
    }
    for (std::size_t s = 0; s < kScenarios; ++s) {
      if (rng() % 9 == 0) rows[s * K + rng() % K] = std::nan("");
      if (rng() % 7 == 0) rows[s * K + rng() % K] = 2e4;
    }
    expect_matches_std_poisson(p, seed, rows);
    if (HasFatalFailure()) return;

    std::vector<float> buffer(rows.begin(), rows.end());
    std::vector<double> widened(buffer.begin(), buffer.end());
    McConfig mc;
    mc.num_scenarios = kScenarios;
    mc.seed = seed;
    expect_bits_eq(
        simulate_losses(p, mc,
                        buffered_gamma_source(std::span<const float>(buffer), K))
            .losses(),
        sorted_totals(std_poisson_obligor_losses(p, seed, widened),
                      p.num_obligors()));
    if (HasFatalFailure()) return;
  }
}

TEST(ScenarioAggregator, FirstDrawBoundStaysBelowExp) {
  // consume() takes a first uniform at or below kFirstDrawBound − λ as
  // count 0 without computing exp(−λ); that needs the computed bound
  // never to exceed the computed exp(−λ) for any λ below the λ = 12
  // switch. Checked on the edges, then on seeded λ in [−1, 12):
  // uniform ones, and ones of every magnitude down to 2^-64.
  ASSERT_EQ(ScenarioAggregator::kFirstDrawBound, 1.0 - 0x1p-50);
  const auto holds = [](double lambda) {
    return ScenarioAggregator::kFirstDrawBound - lambda <= std::exp(-lambda);
  };
  for (const double lambda :
       {0.0, 0x1p-60, 0x1p-53, 1e-17, 1e-9, 1.0 - 0x1p-53, 1.0,
        std::nextafter(12.0, 0.0), -0x1p-60, -1e-17, -1e-9, -1.0}) {
    ASSERT_TRUE(holds(lambda)) << "lambda=" << lambda;
  }
  const std::uint64_t seed = 20240917;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> wide(-1.0, 12.0);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int j = 0; j < 1'000'000; ++j) {
    const double lambda =
        j % 2 == 0 ? wide(rng)
                   : std::ldexp(unit(rng), -static_cast<int>(rng() % 64));
    ASSERT_TRUE(holds(lambda))
        << "seed=" << seed << " draw " << j << ": lambda=" << lambda;
  }
}

TEST(CreditRiskPlus, FpgaPipelineFeedsTheModel) {
  // End-to-end: gammas generated by the decoupled-work-item pipeline
  // (Config2 layout) drive the credit model; the loss mean must match
  // the analytic value. This closes the paper's full application loop.
  constexpr unsigned kSectors = 4;
  constexpr std::uint64_t kScenarios = 1024;
  core::DecoupledConfig dcfg;
  dcfg.work_items = 1;  // one slice: scenario-major layout preserved
  dcfg.floats_per_work_item = kScenarios * kSectors;
  const auto task = core::run_decoupled_work_items(
      dcfg, [](unsigned, core::TransferUnit& out, std::uint64_t n) {
        core::GammaWorkItemConfig w;
        w.app = rng::config(rng::ConfigId::kConfig2);
        // Scenario-major: all sectors per scenario → model the stream
        // as one sector sequence per scenario block.
        w.sector_variances = {1.39f};
        w.outputs_per_sector = static_cast<std::uint32_t>(n);
        core::GammaWorkItem wi(w);
        std::uint64_t produced = 0;
        float v = 0.0f;
        while (produced < n) {
          if (wi.produce(&v)) {
            out.write(v);
            ++produced;
          }
        }
      });
  const auto gammas = task.to_floats();
  ASSERT_EQ(gammas.size(), kScenarios * kSectors);

  std::vector<Sector> sectors(kSectors, Sector{1.39, "s"});
  const auto p = Portfolio::synthetic(100, sectors, 5);
  McConfig mc;
  mc.num_scenarios = kScenarios;
  const auto dist = simulate_losses(
      p, mc, buffered_gamma_source(std::span<const float>(gammas), kSectors));
  EXPECT_NEAR(dist.mean() / p.expected_loss(), 1.0, 0.12);
}

}  // namespace
}  // namespace dwi::finance
