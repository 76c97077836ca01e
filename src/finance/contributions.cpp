#include "finance/contributions.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace dwi::finance {

std::vector<RiskContribution> ContributionReport::ranked() const {
  auto sorted = contributions;
  std::sort(sorted.begin(), sorted.end(),
            [](const RiskContribution& a, const RiskContribution& b) {
              return a.shortfall_contribution > b.shortfall_contribution;
            });
  return sorted;
}

ContributionReport shortfall_contributions(const Portfolio& portfolio,
                                           const McConfig& config,
                                           const GammaSource& gamma,
                                           double confidence) {
  DWI_REQUIRE(confidence > 0.0 && confidence < 1.0,
              "confidence must be in (0, 1)");
  DWI_REQUIRE(static_cast<double>(config.num_scenarios) *
                      (1.0 - confidence) >=
                  20.0,
              "too few tail scenarios for a stable allocation");

  const std::size_t n_obl = portfolio.num_obligors();
  ScenarioAggregator agg(portfolio, config.seed);

  // Per-scenario per-obligor losses (the allocation needs the joint
  // realization, so this is memory-heavier than plain simulation).
  std::vector<double> totals;
  totals.reserve(config.num_scenarios);
  std::vector<std::vector<double>> per_obligor(
      config.num_scenarios, std::vector<double>(n_obl, 0.0));
  std::vector<double> sector_draw(portfolio.num_sectors());
  std::vector<double> lambda(n_obl);

  for (std::uint64_t s = 0; s < config.num_scenarios; ++s) {
    for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
      sector_draw[k] = gamma(s, k);
    }
    agg.intensities(sector_draw.data(), 1, lambda.data());
    agg.consume(lambda.data(), 1, per_obligor[s].data());
    double total = 0.0;
    for (const double loss : per_obligor[s]) total += loss;
    totals.push_back(total);
  }

  // Empirical VaR and the tail set.
  std::vector<double> sorted = totals;
  std::sort(sorted.begin(), sorted.end());
  const auto var_idx = static_cast<std::size_t>(
      std::ceil(confidence * static_cast<double>(sorted.size())) - 1);
  const double var = sorted[std::min(var_idx, sorted.size() - 1)];

  ContributionReport report;
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
  DWI_ASSERT(tail_count > 0);
  for (auto& c : report.contributions) {
    c.shortfall_contribution /= static_cast<double>(tail_count);
  }
  report.expected_shortfall = tail_total / static_cast<double>(tail_count);
  return report;
}

}  // namespace dwi::finance
