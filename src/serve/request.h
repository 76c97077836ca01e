// Typed requests and responses of the sampling service (src/serve).
//
// The serving layer exposes the paper's two workloads as multi-tenant
// request types: raw Marsaglia-Tsang gamma batches (the work-item
// kernel of Listing 2) and full CreditRisk+ portfolio loss
// distributions (§II-D4, the consumer those gammas exist for). Both
// carry a *client-assigned* request id: the id, together with the
// server seed, fully determines the request's RNG substream, so a
// request's result is a pure function of (server_seed, request
// content) — never of arrival order, batching decisions or thread
// count. See docs/SERVE.md for the determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "finance/portfolio.h"
#include "rng/normal.h"
#include "workloads/scheduling.h"

namespace dwi::serve {

/// Client-assigned request identity. Ids select disjoint Philox
/// substream blocks; clients must keep them unique per server if they
/// want statistically independent results (reusing an id deliberately
/// replays the exact same stream — useful for idempotent retries).
using RequestId = std::uint64_t;

/// Workload class of a request. Only same-kind jobs share a batch
/// (they have comparable per-request cost, which keeps batch tail
/// latency predictable), and metrics count per kind.
enum class RequestKind : std::uint8_t {
  kGamma,       ///< Marsaglia-Tsang gamma batch (the paper's kernel)
  kCreditRisk,  ///< CreditRisk+ loss distribution
  kHistogram,   ///< hazard-aware histogram (src/workloads)
  kSpmv,        ///< CSR SpMV with data-dependent trip counts
  kMatching,    ///< greedy maximal matching with a dynamic loop bound
};

/// Number of RequestKind members; keep in sync with the enum (the
/// exhaustive switch in to_string is the compile-time check).
inline constexpr std::size_t kNumRequestKinds = 5;

/// Stable wire/JSON name of a kind — metrics and bench artifacts key
/// per-kind numbers by this instead of raw enum integers.
const char* to_string(RequestKind kind);

/// Round-trip inverse of to_string(); nullopt on unknown names.
std::optional<RequestKind> parse_request_kind(std::string_view name);

/// Admission verdict for a submission attempt.
enum class ServeStatus {
  kAdmitted,        ///< queued; the future will be fulfilled
  kQueueFull,       ///< bounded admission queue is full — back off and retry
  kShuttingDown,    ///< server no longer accepts work
  kInvalidRequest,  ///< request failed validation (limits, parameters)
};

const char* to_string(ServeStatus s);

/// Typed rejection thrown by the throwing submit()/run() wrappers.
/// try_submit() reports the same condition as a return status instead.
class RejectedError : public Error {
 public:
  RejectedError(ServeStatus status, const std::string& what)
      : Error(what), status_(status) {}

  ServeStatus status() const { return status_; }

 private:
  ServeStatus status_;
};

/// Throws the RejectedError a throwing submit() reports for a request
/// of `kind` that `layer` ("serve", "cluster") refused with `status`.
[[noreturn]] void throw_rejected(const char* layer, RequestKind kind,
                                 ServeStatus status);

/// A batch of Gamma(alpha, scale) variates.
struct GammaRequest {
  RequestId id = 0;
  float alpha = 1.0f;        ///< shape; must be > 0
  float scale = 1.0f;        ///< scale; must be > 0
  std::uint32_t count = 0;   ///< variates requested; must be in (0, max]
  /// Uniform→normal transform for the nested sampler (§II-D3). The
  /// default is the paper's Config1/2 choice.
  rng::NormalTransform transform = rng::NormalTransform::kMarsagliaBray;
};

struct GammaResult {
  RequestId id = 0;
  std::vector<float> samples;
  std::uint64_t attempts = 0;  ///< main-loop iterations spent
  std::uint64_t accepted = 0;  ///< == samples.size()
};

/// A CreditRisk+ Monte-Carlo loss-distribution job over a shared
/// (immutable) portfolio. One gamma substream per sector plus a
/// derived Poisson seed, all keyed by (server_seed, id).
struct CreditRiskRequest {
  RequestId id = 0;
  std::shared_ptr<const finance::Portfolio> portfolio;
  std::uint64_t num_scenarios = 0;  ///< must be in [2, max]
};

struct CreditRiskResult {
  RequestId id = 0;
  std::uint64_t scenarios = 0;
  double mean = 0.0;
  double variance = 0.0;
  double var95 = 0.0;   ///< VaR at 95%
  double var999 = 0.0;  ///< VaR at 99.9% (the regulatory quantile)
  double es999 = 0.0;   ///< expected shortfall beyond var999
};

// --- divergent-kernel zoo (src/workloads) ---------------------------------
//
// The zoo requests carry GENERATION PARAMETERS, not input data: the
// server derives the update trace / matrix / edge list from the
// request's own (server_seed, id) substream (slot 0 of the request's
// block, the same slot gamma batches use), so the response — values
// AND modeled cycle stats — stays a pure function of (server_seed,
// request content) and joins the cross-shard determinism matrix. The
// SchedulingMode knob moves cycles, never bytes of the payload.

/// Cycle accounting echoed into every zoo response. Deterministic
/// (derived from the trace, not from host timing), so it is part of
/// the response's determinism contract like any other field.
struct WorkloadStatsResult {
  std::uint64_t cycles = 0;
  std::uint64_t initiations = 0;
  std::uint64_t hazard_stall_cycles = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t skipped = 0;
};

/// Hazard-aware histogram (workloads/histogram.h).
struct HistogramRequest {
  RequestId id = 0;
  std::uint32_t num_updates = 0;  ///< must be in (0, max]
  std::uint32_t num_bins = 256;   ///< must be in [1, max]
  /// Fraction of updates hitting bin 0 — the RAW-collision knob.
  float hot_fraction = 0.0f;      ///< must be in [0, 1]
  workloads::SchedulingMode mode = workloads::SchedulingMode::kDynamic;
};

struct HistogramResult {
  RequestId id = 0;
  std::vector<float> bins;
  std::uint64_t updates = 0;
  WorkloadStatsResult stats;
};

/// CSR SpMV with data-dependent row trip counts (workloads/spmv.h);
/// the matrix is square (cols == rows).
struct SpmvRequest {
  RequestId id = 0;
  std::uint32_t rows = 0;          ///< must be in [1, max]
  std::uint32_t nnz_per_row_min = 0;
  std::uint32_t nnz_per_row_max = 8;  ///< >= min, <= max limit
  workloads::SchedulingMode mode = workloads::SchedulingMode::kDynamic;
};

struct SpmvResult {
  RequestId id = 0;
  std::vector<float> y;
  std::uint64_t nnz = 0;
  WorkloadStatsResult stats;
};

/// Greedy maximal matching with a dynamically-modified loop bound
/// (workloads/matching.h).
struct MatchingRequest {
  RequestId id = 0;
  std::uint32_t num_vertices = 0;  ///< must be in [2, max]
  std::uint32_t num_edges = 0;     ///< must be in (0, max]
  /// Pair quota turning the loop bound dynamic (0 = full pass).
  std::uint32_t target_pairs = 0;
  workloads::SchedulingMode mode = workloads::SchedulingMode::kDynamic;
};

struct MatchingResult {
  RequestId id = 0;
  std::vector<std::int32_t> match;
  std::uint32_t pairs = 0;
  std::uint64_t edges_examined = 0;
  WorkloadStatsResult stats;
};

// --- per-kind traits --------------------------------------------------
//
// RequestTraits<Req> is the one table the generic serving code reads:
// SamplingServer and ShardedSamplingServer are templates over the
// request type and name no kind themselves. Adding a request kind takes
// a RequestKind enumerator with its to_string name, the request/result
// structs above, and one specialization below (valid/compute/
// modeled_load are defined in request.cpp).

class SamplingServer;

/// What the cluster router charges a shard's modeled device for one
/// computed request (minicl::ShardBackend::account).
struct ModeledLoad {
  std::uint64_t outputs = 0;
  float variance = 1.0f;
};

template <typename Req>
struct RequestTraits;  // one specialization per request kind

template <typename Req>
using ResultOf = typename RequestTraits<Req>::Result;

// Each specialization provides:
//   Result, kKind     the response type and the metrics/batching kind;
//   valid(req)        the kind's limits from the ServeConfig constants
//                     (the id-wrap check is common and lives in the
//                     server);
//   compute(req, s)   the response, drawn from s.gamma_stream() /
//                     s.sector_stream() / s.poisson_seed();
//   modeled_load(req) the router's (outputs, variance); must not
//                     dereference anything validation has not checked.

template <>
struct RequestTraits<GammaRequest> {
  using Result = GammaResult;
  static constexpr RequestKind kKind = RequestKind::kGamma;
  static bool valid(const GammaRequest& req);
  static Result compute(const GammaRequest& req, const SamplingServer& s);
  static ModeledLoad modeled_load(const GammaRequest& req);
};

template <>
struct RequestTraits<CreditRiskRequest> {
  using Result = CreditRiskResult;
  static constexpr RequestKind kKind = RequestKind::kCreditRisk;
  static bool valid(const CreditRiskRequest& req);
  static Result compute(const CreditRiskRequest& req,
                        const SamplingServer& s);
  static ModeledLoad modeled_load(const CreditRiskRequest& req);
};

template <>
struct RequestTraits<HistogramRequest> {
  using Result = HistogramResult;
  static constexpr RequestKind kKind = RequestKind::kHistogram;
  static bool valid(const HistogramRequest& req);
  static Result compute(const HistogramRequest& req, const SamplingServer& s);
  static ModeledLoad modeled_load(const HistogramRequest& req);
};

template <>
struct RequestTraits<SpmvRequest> {
  using Result = SpmvResult;
  static constexpr RequestKind kKind = RequestKind::kSpmv;
  static bool valid(const SpmvRequest& req);
  static Result compute(const SpmvRequest& req, const SamplingServer& s);
  static ModeledLoad modeled_load(const SpmvRequest& req);
};

template <>
struct RequestTraits<MatchingRequest> {
  using Result = MatchingResult;
  static constexpr RequestKind kKind = RequestKind::kMatching;
  static bool valid(const MatchingRequest& req);
  static Result compute(const MatchingRequest& req, const SamplingServer& s);
  static ModeledLoad modeled_load(const MatchingRequest& req);
};

}  // namespace dwi::serve
