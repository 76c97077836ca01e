// CreditRisk+ Monte-Carlo engine: the consumer of the paper's gamma
// random numbers (§II-D4). Each scenario draws one gamma variable per
// sector, conditions every obligor's Poisson default intensity on the
// sector draw, and accumulates the portfolio loss; the loss
// distribution yields Value-at-Risk and expected shortfall.
//
// The gamma variables can come from any source — the library sampler,
// the double-precision reference, or a buffer produced by the FPGA
// pipeline (examples/credit_risk_plus wires the full decoupled
// work-item path in) — so the engine doubles as an end-to-end
// validation consumer for every generator in the repository.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "finance/portfolio.h"
#include "rng/mt19937_64.h"
#include "rng/simd_kernels.h"

namespace dwi::finance {

/// Supplies the gamma draw for (scenario, sector). Must return samples
/// from Gamma(1/v_k, v_k) for the portfolio's sector k.
using GammaSource =
    std::function<double(std::uint64_t scenario, std::size_t sector)>;

/// A GammaSource over a pre-generated buffer laid out scenario-major
/// (scenario · num_sectors + sector) — the layout the FPGA transfer
/// units produce per §IV-B.
GammaSource buffered_gamma_source(std::span<const float> buffer,
                                  std::size_t num_sectors);

/// A GammaSource drawing live from the library's Marsaglia-Tsang
/// sampler (one independent stream per sector).
GammaSource sampler_gamma_source(const Portfolio& portfolio,
                                 std::uint32_t seed);

struct McConfig {
  std::uint64_t num_scenarios = 10'000;
  std::uint64_t seed = 1;  ///< for the Poisson default draws
};

class LossDistribution {
 public:
  explicit LossDistribution(std::vector<double> losses);

  double mean() const;
  double variance() const;
  /// Empirical quantile (VaR at confidence `p`, e.g. 0.999).
  double value_at_risk(double p) const;
  /// Expected shortfall: mean loss beyond the VaR; NaN when NaNs hold
  /// the tail.
  double expected_shortfall(double p) const;
  std::size_t scenarios() const { return losses_.size(); }
  const std::vector<double>& losses() const { return losses_; }

 private:
  std::vector<double> losses_;  ///< ascending, −0 before +0, NaNs last
};

/// Run the Monte-Carlo simulation.
LossDistribution simulate_losses(const Portfolio& portfolio,
                                 const McConfig& config,
                                 const GammaSource& gamma);

/// Streaming form of the Monte-Carlo consumer: the conditional-Poisson
/// loss accumulator of the CreditRisk+/Panjer model, fed scenario rows
/// (all sector draws of one scenario) in scenario order. Consuming the
/// rows in that order reproduces simulate_losses bit for bit, because
/// the Poisson engine state advances identically; simulate_losses, the
/// finance pipeline and the serve path's sector work-items all run on
/// it.
///
/// The work splits in two halves, so a caller can run them as two
/// stages (§II-D4, Listing 2's idea of pulling the one loop-carried
/// dependency out of the datapath):
///
///   intensities(): per scenario and obligor, the conditional Poisson
///     intensity λ_i = p_i · (w_i0 + Σ_k w_ik S_k). Independent per
///     scenario; `const`, so any thread may call it. It runs
///     rng::simd's intensity_block kernel, 4 (AVX2) or 8 (AVX-512)
///     obligors a vector.
///   consume(): the default counts, drawn in scenario and obligor order
///     from the one sequential engine, and the loss sums.
///
/// Both halves reproduce std::poisson_distribution<unsigned> over
/// std::mt19937_64 seeded with `poisson_seed` exactly. λ is built in
/// libstdc++'s operation order (w_0 first, sectors ascending, one
/// product by p_i). For λ < 12 the count is libstdc++'s
/// product-of-uniforms loop against exp(−λ) over the same canonical
/// doubles, except that exp(−λ) is only computed when the first
/// uniform u exceeds (1 − 2^-50) − λ: at or below that bound the count
/// is 0, because 1 − λ ≤ e^−λ for every real λ and the 2^-50 margin
/// covers the rounding of the subtraction and of exp. λ ≥ 12 calls
/// std::poisson_distribution itself on rng::Mt19937_64, which yields
/// the same words.
///
/// Most lanes settle that way, on one word (98.5% of them on the
/// 12-obligor perfbench book), so consume() works word by word, as
/// Listing 2 evaluates every lane and selects by flag: it reads the
/// engine's buffered block in place, lets
/// rng::simd's poisson_first_draw_scan find the next lane that does
/// not settle, flat across scenario boundaries, and runs the scalar
/// loop at that lane only. A settled lane adds 0 · e_i = +0.0, which
/// leaves the loss unchanged when e_i is finite; a book with an
/// infinite exposure (0 · ∞ = NaN) runs the scalar loop on every lane.
class ScenarioAggregator {
 public:
  /// `poisson_seed` is McConfig::seed.
  ScenarioAggregator(const Portfolio& portfolio, std::uint64_t poisson_seed);

  /// consume() takes a first uniform at or below kFirstDrawBound − λ
  /// as count 0 without computing exp(−λ); sound because the computed
  /// bound never exceeds the computed exp(−λ) for λ < 12.
  static constexpr double kFirstDrawBound = rng::simd::kPoissonFirstDrawBound;

  /// Intensity half: for `n` scenario rows (row-major, one draw per
  /// sector) write the n · num_obligors intensities λ to `lambda`,
  /// scenario-major. Float draws are widened exactly as
  /// buffered_gamma_source widens them.
  void intensities(const double* rows, std::size_t n, double* lambda) const;
  void intensities(const float* rows, std::size_t n, double* lambda) const;

  /// Poisson half: consume `n` scenarios of intensities() output, in
  /// scenario order. When `obligor_losses` is not null it receives
  /// each obligor's loss, n · num_obligors values (+0.0 for a settled
  /// lane).
  void consume(const double* lambda, std::size_t n,
               double* obligor_losses = nullptr);

  /// Both halves for one scenario: `sector_draws` holds one gamma draw
  /// per sector. Rows must arrive in scenario order.
  void consume_row(const double* sector_draws);
  void consume_row(const float* sector_draws);

  std::uint64_t scenarios() const { return losses_.size(); }

  /// Finish: sort and wrap the losses. The aggregator is spent.
  LossDistribution finish() &&;

 private:
  /// One lane's default count on the scalar path: libstdc++'s loop,
  /// drawing its words from engine_.
  unsigned draw_count(double lambda);

  /// The intensity coefficients as rng::simd's intensity_block reads
  /// them.
  rng::simd::IntensityBook book() const;

  std::size_t num_sectors_;
  std::vector<double> probability_;  ///< p_i
  std::vector<double> exposure_;     ///< e_i
  std::vector<double> w0_;           ///< idiosyncratic weight w_i0
  std::vector<double> weights_;      ///< w_ik, num_sectors × num_obligors
  bool scan_;  ///< every e_i finite: settled lanes may be skipped
  rng::Mt19937_64 engine_;
  std::vector<double> losses_;
  std::vector<double> lambda_;  ///< one row of intensities for consume_row
};

}  // namespace dwi::finance
