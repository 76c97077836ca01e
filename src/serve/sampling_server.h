// SamplingServer: sampling-as-a-service over the repo's deterministic
// parallel machinery.
//
// The ROADMAP's north star is a service shape — many tenants, heavy
// traffic — and the paper's core asset (fully decoupled work-items
// that synchronize only at a shared channel) is exactly what a
// multi-tenant sampling backend needs: every request is an independent
// work-item. This server is the request/response layer every future
// scaling PR (sharding, multi-backend dispatch, result caching) plugs
// into.
//
// Pipeline: submit() validates and admits into the BatchScheduler's
// bounded FIFO (reject-with-typed-error on overload — the caller is
// never blocked indefinitely); the scheduler coalesces same-kind runs
// into batches and fans them out over the process-wide exec pool; each
// request computes on counter-based Philox substreams derived from
// (server_seed, request_id) by rng::CounterSubstreams — an O(1)
// counter write with no shared state.
//
// Determinism contract (pinned by tests/test_serve.cpp): a request's
// result is a pure function of the server seed and the request itself.
// Request id r owns substream indices
//   [r · substreams_per_request, (r+1) · substreams_per_request)
// of the master Philox sequence — gamma and zoo requests use slot 0, a
// CreditRisk+ request uses slot 1+k for sector k plus a Poisson seed
// mixed from (server_seed, id). Arrival order, batch boundaries,
// DWI_THREADS, and batching on/off cannot move a single bit of any
// response.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <utility>

#include "common/error.h"
#include "rng/philox.h"
#include "serve/batch_scheduler.h"
#include "serve/capacity.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/response_cache.h"

namespace dwi::serve {

struct ServeConfig {
  /// Master seed of the Philox substreams; the whole service's output
  /// is a deterministic function of this and the request stream.
  std::uint32_t server_seed = 1;

  std::size_t queue_capacity = 256;
  std::size_t max_batch = 16;
  bool batching = true;

  /// Per-request limits (violations reject with kInvalidRequest).
  std::uint32_t max_gamma_count = 1u << 20;
  std::uint64_t max_scenarios = 1u << 20;
  /// Divergent-kernel zoo limits (src/workloads). Sized so the largest
  /// request's uniform consumption (2 draws per update/edge, 1+2·nnz
  /// per row plus the dense vector) stays far below substream_stride.
  std::uint32_t max_histogram_updates = 1u << 20;
  std::uint32_t max_histogram_bins = 1u << 16;
  std::uint32_t max_spmv_rows = 1u << 12;
  std::uint32_t max_spmv_nnz_per_row = 64;
  std::uint32_t max_matching_vertices = 1u << 16;
  std::uint32_t max_matching_edges = 1u << 20;

  /// Substream indices reserved per request id: slot 0 for gamma, slots
  /// 1..substreams_per_request-1 for CreditRisk+ sectors (so a
  /// portfolio may have at most substreams_per_request - 1 sectors).
  std::uint64_t substreams_per_request = 16;

  /// Master-sequence outputs reserved per substream. Must cover the
  /// worst-case uniform consumption of one request slot; the default
  /// gives max_gamma_count samples a 64-uniform budget each (the
  /// Marsaglia-Tsang expectation is ~4–6).
  std::uint64_t substream_stride = 1ull << 26;

  /// Modeled-capacity admission (serve/capacity.h). When enabled
  /// (modeled_rps > 0, normally filled in by tune::apply_capacity),
  /// the constructor REPLACES queue_capacity and max_batch above with
  /// bounds derived from the plan; config() reflects the effective
  /// values. Disabled plans leave the explicit constants untouched.
  CapacityPlan capacity;

  /// Bounded deterministic response cache
  /// (serve/response_cache.h): entries retained per request kind.
  /// 0 (default) disables caching entirely — no lookup, no counters —
  /// so existing baselines and determinism matrices are unaffected.
  std::size_t response_cache_entries = 0;
};

class SamplingServer {
 public:
  explicit SamplingServer(ServeConfig cfg = {});
  ~SamplingServer();  ///< shutdown(): drains in-flight work

  SamplingServer(const SamplingServer&) = delete;
  SamplingServer& operator=(const SamplingServer&) = delete;

  /// Non-blocking admission of any request kind (RequestTraits<Req>):
  /// on kAdmitted, *out receives the future; any other status leaves
  /// *out untouched. Never blocks, never throws on overload.
  /// `cache_hit` (may be null) reports whether the response came from
  /// the response cache — the future is then already ready and nothing
  /// entered the admission queue. The cluster router uses it to skip
  /// modeled-device accounting for cached answers.
  template <typename Req>
  ServeStatus try_submit(const Req& req, std::future<ResultOf<Req>>* out,
                         bool* cache_hit = nullptr);

  /// Throwing wrapper: returns the future or throws RejectedError.
  template <typename Req>
  std::future<ResultOf<Req>> submit(const Req& req) {
    std::future<ResultOf<Req>> f;
    const ServeStatus s = try_submit(req, &f);
    if (s != ServeStatus::kAdmitted) {
      throw_rejected("serve", RequestTraits<Req>::kKind, s);
    }
    return f;
  }

  /// Synchronous convenience: submit and wait.
  template <typename Req>
  ResultOf<Req> run(const Req& req) {
    return submit(req).get();
  }

  /// Stop admitting, drain every admitted request, fulfill every
  /// accepted future. Idempotent.
  void shutdown();

  /// Snapshot of the server's counters and latency summary.
  MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  const ServeConfig& config() const { return cfg_; }

  /// Current admission-queue occupancy. The cluster router's
  /// least-loaded placement reads this.
  std::size_t queue_depth() const { return scheduler_->queue_depth(); }

  /// The Philox stream a gamma or zoo request with this id draws from,
  /// derived in O(1) (exposed so tests and offline pipelines can
  /// reproduce server results without a server). skip() from its start
  /// reaches any position of the request's uniform tape in O(1), so
  /// offline recomputation of a served response (or any suffix of one)
  /// never replays the master sequence.
  rng::Philox gamma_stream(RequestId id) const;
  /// The Philox stream sector `k` of CreditRisk+ request `id` draws from.
  rng::Philox sector_stream(RequestId id, std::size_t k) const;
  /// The Poisson seed CreditRisk+ request `id` conditions on.
  std::uint64_t poisson_seed(RequestId id) const;

 private:
  /// Request id r owns substream indices [r·spr, (r+1)·spr); false when
  /// that block would wrap the 64-bit index space.
  bool id_in_range(RequestId id) const {
    return id <= (~std::uint64_t{0}) / cfg_.substreams_per_request - 1;
  }

  ServeConfig cfg_;
  rng::CounterSubstreams streams_;
  ServerMetrics metrics_;
  /// Response cache (cfg_.response_cache_entries; null when disabled).
  /// Declared before the scheduler so in-flight jobs can still insert
  /// while it drains on shutdown.
  std::unique_ptr<ResponseCache> cache_;
  std::unique_ptr<BatchScheduler> scheduler_;
};

template <typename Req>
ServeStatus SamplingServer::try_submit(const Req& req,
                                       std::future<ResultOf<Req>>* out,
                                       bool* cache_hit) {
  using Traits = RequestTraits<Req>;
  using Result = ResultOf<Req>;
  constexpr RequestKind kind = Traits::kKind;
  DWI_ASSERT(out != nullptr);
  if (cache_hit) *cache_hit = false;
  metrics_.record_submitted(kind);
  if (!id_in_range(req.id) || !Traits::valid(req, cfg_)) {
    metrics_.record_rejected(ServeStatus::kInvalidRequest);
    return ServeStatus::kInvalidRequest;
  }
  if (cache_) {
    Result cached;
    if (cache_->lookup(req, &cached)) {
      // Answered in-line: submitted + hit + completed, never admitted.
      metrics_.record_cache_hit();
      metrics_.record_completed(0.0, kind);
      std::promise<Result> promise;
      promise.set_value(std::move(cached));
      *out = promise.get_future();
      if (cache_hit) *cache_hit = true;
      return ServeStatus::kAdmitted;
    }
    metrics_.record_cache_miss();
  }

  auto promise = std::make_shared<std::promise<Result>>();
  std::future<Result> future = promise->get_future();
  const auto admitted_at = std::chrono::steady_clock::now();
  const auto since_admitted = [admitted_at] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         admitted_at)
        .count();
  };
  // The job owns everything it touches (scheduler contract); `this`
  // outlives it because shutdown() drains before the server dies.
  // Metrics are recorded before the promise is fulfilled so a caller
  // that sees the future ready also sees the completion counted.
  Job job;
  job.kind = kind;
  job.run = [this, req, promise, since_admitted] {
    try {
      Result result = Traits::compute(req, *this);
      if (cache_) cache_->insert(req, result);
      metrics_.record_completed(since_admitted(), kind);
      promise->set_value(std::move(result));
    } catch (...) {
      metrics_.record_failed(since_admitted());
      promise->set_exception(std::current_exception());
    }
  };
  const ServeStatus status = scheduler_->try_enqueue(std::move(job));
  if (status != ServeStatus::kAdmitted) {
    metrics_.record_rejected(status);
    return status;
  }
  *out = std::move(future);
  return ServeStatus::kAdmitted;
}

}  // namespace dwi::serve
