// Tests for the minicl Program build flow and the finance risk
// contributions, plus the ap_uint division added for HLS completeness.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "finance/contributions.h"
#include "hls/ap_uint.h"
#include "minicl/context.h"
#include "minicl/program.h"

namespace dwi {
namespace {

// --- minicl::Program --------------------------------------------------------

TEST(Program, FpgaAutoBuildPicksPaperComputeUnits) {
  minicl::Program p(minicl::find_device("FPGA"),
                    rng::config(rng::ConfigId::kConfig1));
  const auto r = p.build();
  EXPECT_EQ(r.status, minicl::BuildStatus::kSuccess);
  EXPECT_EQ(r.compute_units, 6u);  // Table II
  EXPECT_TRUE(r.utilization.routable);
  EXPECT_GT(r.build_seconds, 3600.0);  // the hardware flow takes hours
  EXPECT_NE(r.log.find("timing met"), std::string::npos);
}

TEST(Program, FpgaOverSubscribedBuildFailsPar) {
  minicl::Program p(minicl::find_device("FPGA"),
                    rng::config(rng::ConfigId::kConfig3));
  const auto ok = p.build(8);
  EXPECT_EQ(ok.status, minicl::BuildStatus::kSuccess);
  const auto fail = p.build(9);  // one past Table II's maximum
  EXPECT_EQ(fail.status, minicl::BuildStatus::kPlaceAndRouteFailed);
  EXPECT_NE(fail.log.find("place and route failed"), std::string::npos);
}

TEST(Program, FixedArchitectureJitIsFast) {
  minicl::Program p(minicl::find_device("GPU"),
                    rng::config(rng::ConfigId::kConfig2));
  const auto r = p.build();
  EXPECT_EQ(r.status, minicl::BuildStatus::kSuccess);
  EXPECT_LT(r.build_seconds, 5.0);
}

// --- minicl::Context / Buffer ------------------------------------------------

TEST(Context, BufferLifecycleAndAccounting) {
  minicl::Context ctx(minicl::default_devices());
  auto a = ctx.create_buffer(1'000'000);
  auto b = ctx.create_buffer(2'500'000'000ull, minicl::Buffer::Access::kReadOnly);
  EXPECT_EQ(ctx.buffer_count(), 2u);
  EXPECT_EQ(ctx.allocated_bytes(), 2'501'000'000ull);
  EXPECT_EQ(a->size(), 1'000'000u);
  EXPECT_EQ(b->access(), minicl::Buffer::Access::kReadOnly);
  EXPECT_THROW(ctx.create_buffer(0), Error);
}

TEST(Context, QueueCreationAndBoundsCheckedReads) {
  minicl::Context ctx(minicl::default_devices());
  auto queue = ctx.create_queue(3);  // the FPGA combination
  auto buf = ctx.create_buffer(1024);
  auto e = minicl::enqueue_read_buffer(queue, *buf, 1024);
  EXPECT_GT(e->duration(), 0.0);
  EXPECT_THROW(minicl::enqueue_read_buffer(queue, *buf, 1025), Error);
  auto wo = ctx.create_buffer(64, minicl::Buffer::Access::kWriteOnly);
  EXPECT_THROW(minicl::enqueue_read_buffer(queue, *wo, 64), Error);
  EXPECT_THROW(ctx.create_queue(99), Error);
}

// --- finance contributions --------------------------------------------------

TEST(Contributions, SumToExpectedShortfall) {
  const auto p = finance::Portfolio::synthetic(
      80, {{1.39, "a"}, {0.6, "b"}}, 9);
  finance::McConfig mc;
  mc.num_scenarios = 8'000;
  const auto report = finance::shortfall_contributions(
      p, mc, finance::sampler_gamma_source(p, 5), 0.95);
  double sum = 0.0;
  for (const auto& c : report.contributions) {
    sum += c.shortfall_contribution;
  }
  EXPECT_NEAR(sum / report.expected_shortfall, 1.0, 1e-9);
  EXPECT_GE(report.expected_shortfall, report.value_at_risk);
}

TEST(Contributions, TailContributionExceedsUnconditionalLoss) {
  // In the tail, (almost) every obligor loses more than uncondition-
  // ally; the big concentrated names dominate the ranking.
  const auto p = finance::Portfolio::synthetic(60, {{2.0, "s"}}, 12);
  finance::McConfig mc;
  mc.num_scenarios = 10'000;
  const auto report = finance::shortfall_contributions(
      p, mc, finance::sampler_gamma_source(p, 8), 0.95);
  double above = 0;
  for (const auto& c : report.contributions) {
    if (c.shortfall_contribution >= c.expected_loss) ++above;
  }
  EXPECT_GT(above / static_cast<double>(report.contributions.size()), 0.8);

  const auto ranked = report.ranked();
  EXPECT_GE(ranked.front().shortfall_contribution,
            ranked.back().shortfall_contribution);
}

/// shortfall_contributions as it stood before it moved onto
/// ScenarioAggregator: its own intensity sum and
/// std::poisson_distribution loop over std::mt19937_64. The oracle the
/// report must equal bit for bit.
finance::ContributionReport std_poisson_contributions(
    const finance::Portfolio& portfolio, const finance::McConfig& config,
    const finance::GammaSource& gamma, double confidence) {
  const std::size_t n_obl = portfolio.num_obligors();
  std::mt19937_64 default_eng(config.seed);
  std::vector<double> totals;
  std::vector<std::vector<double>> per_obligor(
      config.num_scenarios, std::vector<double>(n_obl, 0.0));
  std::vector<double> sector_draw(portfolio.num_sectors());
  for (std::uint64_t s = 0; s < config.num_scenarios; ++s) {
    for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
      sector_draw[k] = gamma(s, k);
    }
    double total = 0.0;
    for (std::size_t i = 0; i < n_obl; ++i) {
      const auto& o = portfolio.obligors()[i];
      double factor = o.idiosyncratic_weight();
      for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
        factor += o.sector_weights[k] * sector_draw[k];
      }
      std::poisson_distribution<unsigned> poisson(o.default_probability *
                                                  factor);
      const double loss =
          static_cast<double>(poisson(default_eng)) * o.exposure;
      per_obligor[s][i] = loss;
      total += loss;
    }
    totals.push_back(total);
  }
  std::vector<double> sorted = totals;
  std::sort(sorted.begin(), sorted.end());
  const auto var_idx = static_cast<std::size_t>(
      std::ceil(confidence * static_cast<double>(sorted.size())) - 1);
  const double var = sorted[std::min(var_idx, sorted.size() - 1)];

  finance::ContributionReport report;
  report.value_at_risk = var;
  report.contributions.resize(n_obl);
  for (std::size_t i = 0; i < n_obl; ++i) {
    report.contributions[i].obligor = i;
    report.contributions[i].expected_loss =
        portfolio.obligors()[i].default_probability *
        portfolio.obligors()[i].exposure;
  }
  std::size_t tail_count = 0;
  double tail_total = 0.0;
  for (std::uint64_t s = 0; s < config.num_scenarios; ++s) {
    if (totals[s] < var) continue;
    ++tail_count;
    tail_total += totals[s];
    for (std::size_t i = 0; i < n_obl; ++i) {
      report.contributions[i].shortfall_contribution += per_obligor[s][i];
    }
  }
  for (auto& c : report.contributions) {
    c.shortfall_contribution /= static_cast<double>(tail_count);
  }
  report.expected_shortfall = tail_total / static_cast<double>(tail_count);
  return report;
}

TEST(Contributions, MatchesStdPoissonOracle) {
  struct Case {
    std::size_t obligors;
    std::uint64_t book_seed, gamma_seed, poisson_seed;
    double confidence;
  };
  for (const Case& c : {Case{80, 9, 5, 1, 0.95}, Case{60, 12, 8, 77, 0.99},
                        Case{25, 3, 2, 5489, 0.9}}) {
    SCOPED_TRACE("book_seed=" + std::to_string(c.book_seed) +
                 " poisson_seed=" + std::to_string(c.poisson_seed));
    const auto p = finance::Portfolio::synthetic(
        c.obligors, {{1.39, "a"}, {0.6, "b"}, {2.0, "c"}}, c.book_seed);
    finance::McConfig mc;
    mc.num_scenarios = 4'000;
    mc.seed = c.poisson_seed;
    // One source per call: sampler_gamma_source streams are stateful.
    const auto got = finance::shortfall_contributions(
        p, mc, finance::sampler_gamma_source(p, static_cast<std::uint32_t>(
                                                    c.gamma_seed)),
        c.confidence);
    const auto want = std_poisson_contributions(
        p, mc, finance::sampler_gamma_source(p, static_cast<std::uint32_t>(
                                                    c.gamma_seed)),
        c.confidence);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value_at_risk),
              std::bit_cast<std::uint64_t>(want.value_at_risk));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.expected_shortfall),
              std::bit_cast<std::uint64_t>(want.expected_shortfall));
    ASSERT_EQ(got.contributions.size(), want.contributions.size());
    for (std::size_t i = 0; i < got.contributions.size(); ++i) {
      EXPECT_EQ(got.contributions[i].obligor, want.contributions[i].obligor);
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(got.contributions[i].expected_loss),
          std::bit_cast<std::uint64_t>(want.contributions[i].expected_loss));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    got.contributions[i].shortfall_contribution),
                std::bit_cast<std::uint64_t>(
                    want.contributions[i].shortfall_contribution))
          << "obligor " << i;
    }
  }
}

TEST(Contributions, ValidatesTailSize) {
  const auto p = finance::Portfolio::synthetic(10, {{1.0, "s"}}, 3);
  finance::McConfig mc;
  mc.num_scenarios = 100;
  EXPECT_THROW(finance::shortfall_contributions(
                   p, mc, finance::sampler_gamma_source(p, 1), 0.999),
               Error);
}

// --- ap_uint division --------------------------------------------------------

TEST(ApUintDiv, MatchesUint64) {
  std::mt19937_64 eng(3);
  for (int it = 0; it < 500; ++it) {
    const std::uint64_t a = eng();
    const std::uint64_t b = (eng() % 2 == 0) ? (eng() >> 32) | 1u
                                             : eng() | 1u;
    hls::ap_uint<64> x(a);
    hls::ap_uint<64> y(b);
    ASSERT_EQ((x / y).to_uint64(), a / b);
    ASSERT_EQ((x % y).to_uint64(), a % b);
  }
}

TEST(ApUintDiv, WideIdentity) {
  // (q·b + r == a) and (r < b) for random 512-bit operands.
  std::mt19937_64 eng(7);
  for (int it = 0; it < 50; ++it) {
    hls::ap_uint<512> a;
    hls::ap_uint<512> b;
    for (unsigned w = 0; w < 8; ++w) {
      a.set_range(w * 64 + 63, w * 64, eng());
      if (w < 3) b.set_range(w * 64 + 63, w * 64, eng());
    }
    if (b.is_zero()) b = hls::ap_uint<512>(1);
    hls::ap_uint<512> q;
    hls::ap_uint<512> r;
    hls::ap_uint<512>::divmod(a, b, &q, &r);
    ASSERT_TRUE(r < b);
    ASSERT_EQ(q * b + r, a);
  }
}

TEST(ApUintDiv, DivisionBySmallConstants) {
  hls::ap_uint<128> x;
  x.set_range(127, 64, 1);  // x = 2^64
  // 2^64 / 2 = 2^63; remainder 0.
  const auto half = x / hls::ap_uint<128>(2);
  EXPECT_TRUE(half.bit(63));
  EXPECT_EQ(half.get_range64(62, 0), 0u);
  EXPECT_FALSE(half.bit(64));
  EXPECT_TRUE((x % hls::ap_uint<128>(2)).is_zero());
  // (2^64 + 5) / 3 = 6148914691236517207 remainder 0... check identity.
  hls::ap_uint<128> y = x + hls::ap_uint<128>(5);
  hls::ap_uint<128> q;
  hls::ap_uint<128> r;
  hls::ap_uint<128>::divmod(y, hls::ap_uint<128>(3), &q, &r);
  EXPECT_EQ(q * hls::ap_uint<128>(3) + r, y);
  EXPECT_TRUE(r < hls::ap_uint<128>(3));
}

}  // namespace
}  // namespace dwi
