#include "serve/request.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "finance/creditrisk_plus.h"
#include "finance/pipeline.h"
#include "rng/gamma.h"
#include "serve/sampling_server.h"
#include "workloads/histogram.h"
#include "workloads/matching.h"
#include "workloads/spmv.h"

namespace dwi::serve {

namespace {

WorkloadStatsResult to_stats_result(const workloads::WorkloadStats& s) {
  WorkloadStatsResult r;
  r.cycles = s.cycles;
  r.initiations = s.initiations;
  r.hazard_stall_cycles = s.hazard_stall_cycles;
  r.forwarded = s.forwarded;
  r.skipped = s.skipped;
  return r;
}

bool positive_finite(float x) { return x > 0.0f && std::isfinite(x); }

}  // namespace

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kAdmitted: return "admitted";
    case ServeStatus::kQueueFull: return "queue-full";
    case ServeStatus::kShuttingDown: return "shutting-down";
    case ServeStatus::kInvalidRequest: return "invalid-request";
  }
  return "unknown";
}

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kGamma: return "gamma";
    case RequestKind::kCreditRisk: return "creditrisk";
    case RequestKind::kHistogram: return "histogram";
    case RequestKind::kSpmv: return "spmv";
    case RequestKind::kMatching: return "matching";
  }
  return "unknown";
}

std::optional<RequestKind> parse_request_kind(std::string_view name) {
  for (std::size_t i = 0; i < kNumRequestKinds; ++i) {
    const auto kind = static_cast<RequestKind>(i);
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

void throw_rejected(const char* layer, RequestKind kind, ServeStatus status) {
  throw RejectedError(status, std::string(layer) + ": " + to_string(kind) +
                                  " request rejected: " + to_string(status));
}

// --- gamma ------------------------------------------------------------

bool RequestTraits<GammaRequest>::valid(const GammaRequest& req) {
  return req.count > 0 && req.count <= ServeConfig::max_gamma_count &&
         positive_finite(req.alpha) && positive_finite(req.scale);
}

GammaResult RequestTraits<GammaRequest>::compute(const GammaRequest& req,
                                                 const SamplingServer& s) {
  rng::GammaSampler sampler(rng::GammaConstants::make(req.alpha, req.scale),
                            req.transform);
  GammaResult res;
  res.id = req.id;
  res.samples.resize(req.count);
  rng::Philox px = s.gamma_stream(req.id);
  sampler.sample_block(px, res.samples.data(), res.samples.size());
  res.attempts = sampler.attempts();
  res.accepted = sampler.accepted();
  return res;
}

ModeledLoad RequestTraits<GammaRequest>::modeled_load(const GammaRequest& req) {
  // Model the launch the way CreditRisk+ sizes gammas: shape alpha
  // corresponds to sector variance 1/alpha.
  return {req.count, req.alpha > 0.0f ? 1.0f / req.alpha : 1.0f};
}

// --- CreditRisk+ --------------------------------------------------------

bool RequestTraits<CreditRiskRequest>::valid(const CreditRiskRequest& req) {
  if (!req.portfolio) return false;
  const std::size_t sectors = req.portfolio->num_sectors();
  const auto& obligors = req.portfolio->obligors();
  // An infinite exposure makes its non-default lanes lose 0 · ∞ = NaN.
  return req.num_scenarios >= 2 &&
         req.num_scenarios <= ServeConfig::max_scenarios && sectors > 0 &&
         sectors <= ServeConfig::substreams_per_request - 1 &&
         std::all_of(obligors.begin(), obligors.end(),
                     [](const finance::Obligor& o) {
                       return std::isfinite(o.exposure);
                     });
}

namespace {

/// One sector's decoupled work-item (Listing 2's MAINLOOP): its sampler
/// and a read-ahead reader on its own Philox substream, both resumed
/// wave after wave.
struct SectorWorkItem {
  rng::GammaSampler sampler;
  rng::BlockWordReader<rng::Philox> words;
};

}  // namespace

CreditRiskResult RequestTraits<CreditRiskRequest>::compute(
    const CreditRiskRequest& req, const SamplingServer& s) {
  const finance::Portfolio& portfolio = *req.portfolio;
  std::vector<SectorWorkItem> items;
  items.reserve(portfolio.num_sectors());
  for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
    items.push_back(SectorWorkItem{
        rng::GammaSampler(
            rng::GammaConstants::from_sector_variance(
                static_cast<float>(portfolio.sectors()[k].variance)),
            rng::NormalTransform::kMarsagliaBray),
        rng::BlockWordReader<rng::Philox>(s.sector_stream(req.id, k))});
  }

  // The sectors draw one variate at a time, so a fill has no surplus.
  // Scenario order is kept, so the losses are those of
  // finance::simulate_losses on per-draw sector samplers. Waves of 256
  // scenarios (16 blocks of 16) keep a λ slot at 256 scenarios of
  // intensities. With 4096-scenario waves, serve_heavy's peak RSS rose
  // from 15 to 26 MB, and BM_CreditRiskRequestCompute (2000 scenarios,
  // 4 threads) took 1.2 ms against 0.8 ms (4-vCPU x86-64 host).
  const finance::LossDistribution dist = finance::run_sector_waves(
      portfolio, s.poisson_seed(req.id), req.num_scenarios,
      /*scenario_block=*/16,
      [&](std::size_t k, std::vector<float>& draws, std::size_t n) {
        SectorWorkItem& item = items[k];
        const std::size_t have = draws.size();
        draws.resize(n);
        for (std::size_t j = have; j < n; ++j) {
          draws[j] = item.sampler.sample(item.words);
        }
      });

  CreditRiskResult res;
  res.id = req.id;
  res.scenarios = dist.scenarios();
  res.mean = dist.mean();
  res.variance = dist.variance();
  res.var95 = dist.value_at_risk(0.95);
  res.var999 = dist.value_at_risk(0.999);
  res.es999 = dist.expected_shortfall(0.999);
  return res;
}

ModeledLoad RequestTraits<CreditRiskRequest>::modeled_load(
    const CreditRiskRequest& req) {
  if (!req.portfolio || req.portfolio->num_sectors() == 0) {
    return {req.num_scenarios, 1.0f};
  }
  const std::size_t sectors = req.portfolio->num_sectors();
  double sum = 0.0;
  for (const auto& sector : req.portfolio->sectors()) sum += sector.variance;
  return {req.num_scenarios * sectors,
          static_cast<float>(sum / static_cast<double>(sectors))};
}

// --- zoo: histogram -----------------------------------------------------

bool RequestTraits<HistogramRequest>::valid(const HistogramRequest& req) {
  return req.num_updates > 0 &&
         req.num_updates <= ServeConfig::max_histogram_updates &&
         req.num_bins > 0 && req.num_bins <= ServeConfig::max_histogram_bins &&
         req.hot_fraction >= 0.0f && req.hot_fraction <= 1.0f;
}

HistogramResult RequestTraits<HistogramRequest>::compute(
    const HistogramRequest& req, const SamplingServer& s) {
  rng::Philox px = s.gamma_stream(req.id);
  const auto src = [&px] { return px.next(); };
  const workloads::HistogramTrace trace = workloads::make_histogram_trace(
      req.num_updates, req.num_bins, req.hot_fraction, src);

  workloads::HistogramConfig kcfg;
  kcfg.num_bins = req.num_bins;
  kcfg.mode = req.mode;
  workloads::HistogramOutput out =
      workloads::run_histogram(kcfg, trace.addrs, trace.weights);

  HistogramResult res;
  res.id = req.id;
  res.bins = std::move(out.bins);
  res.updates = req.num_updates;
  res.stats = to_stats_result(out.stats);
  return res;
}

ModeledLoad RequestTraits<HistogramRequest>::modeled_load(
    const HistogramRequest& req) {
  // One modeled output per update; the divergence knob maps to variance
  // like gamma shape does (hotter traces stall more on real hardware).
  return {req.num_updates, 1.0f + req.hot_fraction};
}

// --- zoo: SpMV ----------------------------------------------------------

bool RequestTraits<SpmvRequest>::valid(const SpmvRequest& req) {
  return req.rows > 0 && req.rows <= ServeConfig::max_spmv_rows &&
         req.nnz_per_row_min <= req.nnz_per_row_max &&
         req.nnz_per_row_max <= ServeConfig::max_spmv_nnz_per_row;
}

SpmvResult RequestTraits<SpmvRequest>::compute(const SpmvRequest& req,
                                               const SamplingServer& s) {
  rng::Philox px = s.gamma_stream(req.id);
  const auto src = [&px] { return px.next(); };
  const workloads::CsrMatrix matrix = workloads::make_spmv_matrix(
      req.rows, req.rows, req.nnz_per_row_min, req.nnz_per_row_max, src);
  const std::vector<float> x = workloads::make_dense_vector(req.rows, src);

  workloads::SpmvConfig kcfg;
  kcfg.mode = req.mode;
  workloads::SpmvOutput out = workloads::run_spmv(kcfg, matrix, x);

  SpmvResult res;
  res.id = req.id;
  res.y = std::move(out.y);
  res.nnz = matrix.nnz();
  res.stats = to_stats_result(out.stats);
  return res;
}

ModeledLoad RequestTraits<SpmvRequest>::modeled_load(const SpmvRequest& req) {
  // Expected nnz: rows × midpoint of the per-row occupancy range.
  const std::uint64_t outputs =
      std::uint64_t{req.rows} *
      ((std::uint64_t{req.nnz_per_row_min} + req.nnz_per_row_max + 1) / 2);
  return {std::max<std::uint64_t>(outputs, req.rows), 1.0f};
}

// --- zoo: matching ------------------------------------------------------

bool RequestTraits<MatchingRequest>::valid(const MatchingRequest& req) {
  return req.num_vertices >= 2 &&
         req.num_vertices <= ServeConfig::max_matching_vertices &&
         req.num_edges > 0 && req.num_edges <= ServeConfig::max_matching_edges;
}

MatchingResult RequestTraits<MatchingRequest>::compute(
    const MatchingRequest& req, const SamplingServer& s) {
  rng::Philox px = s.gamma_stream(req.id);
  const auto src = [&px] { return px.next(); };
  const workloads::EdgeList graph =
      workloads::make_edge_list(req.num_vertices, req.num_edges, src);

  workloads::MatchingConfig kcfg;
  kcfg.mode = req.mode;
  kcfg.target_pairs = req.target_pairs;
  workloads::MatchingOutput out = workloads::run_matching(kcfg, graph);

  MatchingResult res;
  res.id = req.id;
  res.match = std::move(out.match);
  res.pairs = out.pairs;
  res.edges_examined = out.edges_examined;
  res.stats = to_stats_result(out.stats);
  return res;
}

ModeledLoad RequestTraits<MatchingRequest>::modeled_load(
    const MatchingRequest& req) {
  return {req.num_edges, 1.0f};
}

}  // namespace dwi::serve
