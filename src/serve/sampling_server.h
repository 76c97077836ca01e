// SamplingServer: sampling-as-a-service over the repo's deterministic
// parallel machinery.
//
// The ROADMAP's north star is a service shape — many tenants, heavy
// traffic — and the paper's core asset (fully decoupled work-items
// that synchronize only at a shared channel) is exactly what a
// multi-tenant sampling backend needs: every request is an independent
// work-item. This server is the request/response layer every future
// scaling step (sharding, multi-backend dispatch) plugs into.
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
// DWI_THREADS, and max_batch cannot move a single bit of any response.
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
#include "serve/metrics.h"
#include "serve/request.h"

namespace dwi::serve {

struct ServeConfig {
  /// Master seed of the Philox substreams; the whole service's output
  /// is a deterministic function of this and the request stream.
  std::uint32_t server_seed = 1;

  /// Admission bounds, passed to the BatchScheduler as given: a zero
  /// in either throws dwi::Error from the constructor. max_batch = 1
  /// dispatches one job at a time.
  std::size_t queue_capacity = 256;
  std::size_t max_batch = 16;

  /// Per-request limits (violations reject with kInvalidRequest).
  static constexpr std::uint32_t max_gamma_count = 1u << 20;
  static constexpr std::uint64_t max_scenarios = 1u << 20;
  /// Divergent-kernel zoo limits (src/workloads).
  static constexpr std::uint32_t max_histogram_updates = 1u << 20;
  static constexpr std::uint32_t max_histogram_bins = 1u << 16;
  static constexpr std::uint32_t max_spmv_rows = 1u << 12;
  static constexpr std::uint32_t max_spmv_nnz_per_row = 64;
  static constexpr std::uint32_t max_matching_vertices = 1u << 16;
  static constexpr std::uint32_t max_matching_edges = 1u << 20;

  /// Substream indices reserved per request id: slot 0 for gamma, slots
  /// 1..substreams_per_request-1 for CreditRisk+ sectors (so a
  /// portfolio may have at most substreams_per_request - 1 sectors).
  static constexpr std::uint64_t substreams_per_request = 16;
  static_assert(substreams_per_request >= 2,
                "need one gamma slot and one sector slot per request id");

  /// Master-sequence outputs reserved per substream. Must cover the
  /// worst-case uniform consumption of one request slot: max_gamma_count
  /// samples get a 64-uniform budget each (the Marsaglia-Tsang
  /// expectation is ~4–6), and the largest zoo request (2 draws per
  /// update/edge, 1+2·nnz per row plus the dense vector) stays below it.
  static constexpr std::uint64_t substream_stride = 1ull << 26;
  static_assert(std::uint64_t{64} * max_gamma_count <= substream_stride);
  static_assert(std::uint64_t{2} * max_histogram_updates <= substream_stride);
  static_assert(std::uint64_t{2} * max_matching_edges <= substream_stride);
  static_assert(std::uint64_t{max_spmv_rows} * (2 + 2 * max_spmv_nnz_per_row) <=
                substream_stride);
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
  template <typename Req>
  ServeStatus try_submit(const Req& req, std::future<ResultOf<Req>>* out);

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
  std::size_t queue_depth() const { return scheduler_.queue_depth(); }

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
  static bool id_in_range(RequestId id) {
    return id <= (~std::uint64_t{0}) / ServeConfig::substreams_per_request - 1;
  }

  ServeConfig cfg_;
  rng::CounterSubstreams streams_;
  ServerMetrics metrics_;
  BatchScheduler scheduler_;
};

template <typename Req>
ServeStatus SamplingServer::try_submit(const Req& req,
                                       std::future<ResultOf<Req>>* out) {
  using Traits = RequestTraits<Req>;
  using Result = ResultOf<Req>;
  constexpr RequestKind kind = Traits::kKind;
  DWI_ASSERT(out != nullptr);
  metrics_.record_submitted(kind);
  if (!id_in_range(req.id) || !Traits::valid(req)) {
    metrics_.record_rejected(ServeStatus::kInvalidRequest);
    return ServeStatus::kInvalidRequest;
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
      metrics_.record_completed(since_admitted(), kind);
      promise->set_value(std::move(result));
    } catch (...) {
      metrics_.record_failed(since_admitted());
      promise->set_exception(std::current_exception());
    }
  };
  const ServeStatus status = scheduler_.try_enqueue(std::move(job));
  if (status != ServeStatus::kAdmitted) {
    metrics_.record_rejected(status);
    return status;
  }
  *out = std::move(future);
  return ServeStatus::kAdmitted;
}

}  // namespace dwi::serve
