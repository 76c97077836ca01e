// ShardedSamplingServer: the sampling service scaled out across
// simulated devices.
//
// The paper scales by replicating fully decoupled work-items that
// synchronize only at a shared channel; the serving layer scales the
// same way one level up: N independent SamplingServer shards, each
// bound to its own simulated device (minicl::ShardBackend — an
// fpgasim FPGA or a SIMT CPU/GPU/PHI instance it owns exclusively),
// behind one router. The scheduler model follows the
// tasks-across-device-owning-workers shape of "Enabling OpenMP Task
// Parallelism on Multi-FPGAs" (PAPERS.md): placement is a routing
// decision, execution is per-shard, and nothing is shared between
// shards but the router.
//
// Placement policies:
//   * kConsistentHash — a virtual-node hash ring over the request id.
//     Hot/hot-retry ids land on a stable shard (idempotent retries,
//     future result caching); adding or removing a shard remaps only
//     the keys the ring moves (ConsistentHashRing pins this as a
//     property test).
//   * kLeastLoaded — shards ordered by current admission occupancy
//     (SamplingServer::queue_depth()), ties to the lowest index.
//
// Cross-shard stealing (ClusterConfig::steal): when the placed shard's
// bounded queue is full, the router retries the remaining shards in
// placement order instead of rejecting — hot keys overflow onto idle
// shards. Only when EVERY candidate is full does the caller see
// kQueueFull; the router never blocks and never drops an admitted
// request.
//
// Determinism contract (tests/test_cluster.cpp): every shard is
// configured with the SAME server_seed, so a request's response is
// derived from (server_seed, request id) counter-based substreams
// no matter which shard computes it. Shard count, routing policy,
// stealing and thread count cannot move a single bit of any response — placement is invisible in the bytes, which is what
// makes stealing and re-sharding safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "minicl/shard_backend.h"
#include "serve/request.h"
#include "serve/sampling_server.h"

namespace dwi::serve {

/// How the router places a request's primary shard.
enum class RouterPolicy { kConsistentHash, kLeastLoaded };

const char* to_string(RouterPolicy policy);

/// Consistent-hash ring with virtual nodes. Each shard owns
/// `vnodes_per_shard` pseudo-random points on a 64-bit ring; a key
/// belongs to the first vnode clockwise from its hash. Adding or
/// removing a shard only moves the keys whose owning arc changed —
/// the minimal-remap property the cluster relies on for re-sharding.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(std::size_t vnodes_per_shard = 64);

  void add_shard(std::size_t shard);
  void remove_shard(std::size_t shard);

  std::size_t num_shards() const { return num_shards_; }
  std::size_t vnodes_per_shard() const { return vnodes_; }
  bool empty() const { return ring_.empty(); }

  /// The shard owning `key` (the request id). Requires a non-empty
  /// ring.
  std::size_t shard_for(std::uint64_t key) const;

  /// Every distinct shard in clockwise ring order starting from the
  /// key's owner — the router's steal/retry order.
  std::vector<std::size_t> preference_order(std::uint64_t key) const;

 private:
  struct VNode {
    std::uint64_t point;
    std::size_t shard;
  };

  std::size_t vnodes_;
  std::size_t num_shards_ = 0;
  std::vector<VNode> ring_;  ///< sorted by point
};

struct ClusterConfig {
  std::size_t num_shards = 4;
  RouterPolicy policy = RouterPolicy::kConsistentHash;
  /// Retry-on-next-shard when the placed shard's queue is full.
  bool steal = true;

  /// Per-shard server configuration. Every shard gets an identical
  /// copy — one server_seed for the whole cluster is precisely what
  /// makes placement irrelevant to response bytes. queue_capacity
  /// etc. all apply per shard.
  /// (shard.response_cache_entries turns on a PER-SHARD response
  /// cache; with consistent-hash placement, retries of an id land on
  /// the shard that cached it.)
  ServeConfig shard;

  /// Simulated device kind per shard; cycled when shorter than
  /// num_shards, all-FPGA when empty. The router mirrors every
  /// computed request onto its shard's modeled device timeline
  /// (minicl::ShardBackend::account).
  std::vector<minicl::BackendKind> devices;
};

/// Per-shard slice of a cluster snapshot.
struct ShardSnapshot {
  std::string device;                 ///< backend name ("fpgasim:0 (...)")
  std::uint64_t routed_primary = 0;   ///< admitted here as first choice
  std::uint64_t stolen_in = 0;        ///< admitted here after a full primary
  double modeled_busy_seconds = 0.0;  ///< device-model busy time
  std::uint64_t modeled_launches = 0;
  std::size_t queue_depth = 0;        ///< admission occupancy at snapshot
  MetricsSnapshot metrics;            ///< the shard server's own counters
};

/// Router-level counters plus every shard's snapshot.
struct ClusterSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t stolen = 0;            ///< admitted on a non-primary shard
  std::uint64_t rejected_full = 0;     ///< every candidate shard was full
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_shutdown = 0;
  std::vector<ShardSnapshot> shards;

  /// Busy time of the most-loaded device — the modeled completion
  /// bound of the work admitted so far (capacity = admitted /
  /// bottleneck seconds).
  double bottleneck_modeled_seconds() const;
};

class ShardedSamplingServer {
 public:
  explicit ShardedSamplingServer(ClusterConfig cfg = {});
  ~ShardedSamplingServer();  ///< shutdown(): drains every shard

  ShardedSamplingServer(const ShardedSamplingServer&) = delete;
  ShardedSamplingServer& operator=(const ShardedSamplingServer&) = delete;

  /// Non-blocking admission of any request kind through the router;
  /// same contract as SamplingServer::try_submit. kQueueFull means
  /// every candidate shard (one without stealing) was full.
  template <typename Req>
  ServeStatus try_submit(const Req& req, std::future<ResultOf<Req>>* out) {
    DWI_ASSERT(out != nullptr);
    return route(req.id, RequestTraits<Req>::modeled_load(req),
                 [&](SamplingServer& shard, bool* cache_hit) {
                   return shard.try_submit(req, out, cache_hit);
                 });
  }

  /// Throwing / synchronous wrappers, as on SamplingServer.
  template <typename Req>
  std::future<ResultOf<Req>> submit(const Req& req) {
    std::future<ResultOf<Req>> f;
    const ServeStatus s = try_submit(req, &f);
    if (s != ServeStatus::kAdmitted) {
      throw_rejected("cluster", RequestTraits<Req>::kKind, s);
    }
    return f;
  }
  template <typename Req>
  ResultOf<Req> run(const Req& req) {
    return submit(req).get();
  }

  /// Stop admitting cluster-wide, then drain every shard. Idempotent.
  void shutdown();

  ClusterSnapshot metrics() const;
  const ClusterConfig& config() const { return cfg_; }
  std::size_t num_shards() const { return shards_.size(); }
  SamplingServer& shard(std::size_t i) { return *shards_[i]->server; }
  const minicl::ShardBackend& backend(std::size_t i) const {
    return *shards_[i]->backend;
  }
  const ConsistentHashRing& ring() const { return ring_; }

  /// The shards the router would try for `id`, in order (index 0 is
  /// the primary; the rest is the steal order). Least-loaded placement
  /// is a point-in-time answer.
  std::vector<std::size_t> placement_order(RequestId id) const;

  /// Offline-reproduction accessors, identical on every shard (same
  /// seed, same geometry) — delegated to shard 0 so cluster responses
  /// can be recomputed without knowing placement.
  rng::Philox gamma_stream(RequestId id) const;
  rng::Philox sector_stream(RequestId id, std::size_t k) const;
  std::uint64_t poisson_seed(RequestId id) const;

 private:
  struct Shard {
    std::unique_ptr<SamplingServer> server;
    std::unique_ptr<minicl::ShardBackend> backend;
    std::atomic<std::uint64_t> routed_primary{0};
    std::atomic<std::uint64_t> stolen_in{0};
  };

  /// Offers the request to the placement order's shards through
  /// `try_shard` (a SamplingServer::try_submit call) and, for work a
  /// shard will compute, charges `load` to that shard's modeled device.
  using TryShard = std::function<ServeStatus(SamplingServer&, bool*)>;
  ServeStatus route(RequestId id, ModeledLoad load, const TryShard& try_shard);

  ClusterConfig cfg_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_invalid_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
};

}  // namespace dwi::serve
