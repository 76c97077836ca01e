#include "serve/cluster.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.h"

namespace dwi::serve {

namespace {

/// splitmix64 finalizer — the ring's point hash and key hash. Request
/// ids are often small and sequential; the finalizer spreads them
/// uniformly over the 64-bit ring.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t vnode_point(std::size_t shard, std::size_t vnode) {
  return mix64(mix64(static_cast<std::uint64_t>(shard) +
                     0x632be59bd9b4e019ull) ^
               (static_cast<std::uint64_t>(vnode) * 0x9e3779b97f4a7c15ull));
}

}  // namespace

const char* to_string(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kConsistentHash:
      return "consistent-hash";
    case RouterPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "unknown";
}

ConsistentHashRing::ConsistentHashRing(std::size_t vnodes_per_shard)
    : vnodes_(vnodes_per_shard) {
  DWI_REQUIRE(vnodes_ >= 1, "ring: need at least one virtual node per shard");
}

void ConsistentHashRing::add_shard(std::size_t shard) {
  for (const VNode& v : ring_) {
    DWI_REQUIRE(v.shard != shard, "ring: shard already present");
  }
  ring_.reserve(ring_.size() + vnodes_);
  for (std::size_t j = 0; j < vnodes_; ++j) {
    ring_.push_back(VNode{vnode_point(shard, j), shard});
  }
  std::sort(ring_.begin(), ring_.end(), [](const VNode& a, const VNode& b) {
    return a.point != b.point ? a.point < b.point : a.shard < b.shard;
  });
  ++num_shards_;
}

void ConsistentHashRing::remove_shard(std::size_t shard) {
  const std::size_t before = ring_.size();
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [shard](const VNode& v) {
                               return v.shard == shard;
                             }),
              ring_.end());
  DWI_REQUIRE(ring_.size() != before, "ring: shard not present");
  --num_shards_;
}

std::size_t ConsistentHashRing::shard_for(std::uint64_t key) const {
  DWI_REQUIRE(!ring_.empty(), "ring: no shards");
  const std::uint64_t h = mix64(key);
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), h,
      [](std::uint64_t value, const VNode& v) { return value < v.point; });
  if (it == ring_.end()) it = ring_.begin();  // wrap past the last point
  return it->shard;
}

std::vector<std::size_t> ConsistentHashRing::preference_order(
    std::uint64_t key) const {
  DWI_REQUIRE(!ring_.empty(), "ring: no shards");
  const std::uint64_t h = mix64(key);
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), h,
      [](std::uint64_t value, const VNode& v) { return value < v.point; });
  if (it == ring_.end()) it = ring_.begin();

  std::vector<std::size_t> order;
  order.reserve(num_shards_);
  const std::size_t start = static_cast<std::size_t>(it - ring_.begin());
  for (std::size_t i = 0; i < ring_.size() && order.size() < num_shards_;
       ++i) {
    const std::size_t shard = ring_[(start + i) % ring_.size()].shard;
    if (std::find(order.begin(), order.end(), shard) == order.end()) {
      order.push_back(shard);
    }
  }
  return order;
}

double ClusterSnapshot::bottleneck_modeled_seconds() const {
  double worst = 0.0;
  for (const ShardSnapshot& s : shards) {
    worst = std::max(worst, s.modeled_busy_seconds);
  }
  return worst;
}

ShardedSamplingServer::ShardedSamplingServer(ClusterConfig cfg)
    : cfg_(std::move(cfg)) {
  DWI_REQUIRE(cfg_.num_shards >= 1, "cluster: need at least one shard");
  shards_.reserve(cfg_.num_shards);
  for (std::size_t i = 0; i < cfg_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // Every shard gets the SAME ServeConfig — one server_seed, one
    // substream geometry — which is the whole determinism story.
    shard->server = std::make_unique<SamplingServer>(cfg_.shard);
    const minicl::BackendKind kind =
        cfg_.devices.empty()
            ? minicl::BackendKind::kFpga
            : cfg_.devices[i % cfg_.devices.size()];
    shard->backend = minicl::make_shard_backend(kind,
                                                static_cast<unsigned>(i));
    shards_.push_back(std::move(shard));
    ring_.add_shard(i);
  }
}

ShardedSamplingServer::~ShardedSamplingServer() { shutdown(); }

void ShardedSamplingServer::shutdown() {
  accepting_.store(false, std::memory_order_release);
  for (auto& shard : shards_) shard->server->shutdown();
}

std::vector<std::size_t> ShardedSamplingServer::placement_order(
    RequestId id) const {
  if (cfg_.policy == RouterPolicy::kConsistentHash) {
    return ring_.preference_order(id);
  }
  // Least-loaded: admission occupancy ascending, ties to the lowest
  // shard index (stable sort over an index-ordered base).
  std::vector<std::pair<std::size_t, std::size_t>> load;
  load.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    load.emplace_back(shards_[i]->server->queue_depth(), i);
  }
  std::stable_sort(load.begin(), load.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::size_t> order;
  order.reserve(load.size());
  for (const auto& [depth, index] : load) order.push_back(index);
  return order;
}

ServeStatus ShardedSamplingServer::route(RequestId id, ModeledLoad load,
                                         const TryShard& try_shard) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!accepting_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    return ServeStatus::kShuttingDown;
  }
  const std::vector<std::size_t> order = placement_order(id);
  // Without stealing only the placed shard is tried; with it, a full
  // primary falls through to the rest of the placement order.
  const std::size_t candidates = cfg_.steal ? order.size() : 1;
  for (std::size_t i = 0; i < candidates; ++i) {
    Shard& shard = *shards_[order[i]];
    const ServeStatus status = try_shard(*shard.server);
    switch (status) {
      case ServeStatus::kAdmitted:
        admitted_.fetch_add(1, std::memory_order_relaxed);
        if (i == 0) {
          shard.routed_primary.fetch_add(1, std::memory_order_relaxed);
        } else {
          shard.stolen_in.fetch_add(1, std::memory_order_relaxed);
          stolen_.fetch_add(1, std::memory_order_relaxed);
        }
        shard.backend->account(load.outputs, load.variance);
        return status;
      case ServeStatus::kQueueFull:
        continue;  // retry-on-next-shard (or fall out of the loop)
      case ServeStatus::kInvalidRequest:
        rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
        return status;
      case ServeStatus::kShuttingDown:
        rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
        return status;
    }
  }
  rejected_full_.fetch_add(1, std::memory_order_relaxed);
  return ServeStatus::kQueueFull;
}

ClusterSnapshot ShardedSamplingServer::metrics() const {
  ClusterSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.admitted = admitted_.load(std::memory_order_relaxed);
  snap.stolen = stolen_.load(std::memory_order_relaxed);
  snap.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  snap.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  snap.rejected_shutdown =
      rejected_shutdown_.load(std::memory_order_relaxed);
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardSnapshot s;
    s.device = shard->backend->name();
    s.routed_primary = shard->routed_primary.load(std::memory_order_relaxed);
    s.stolen_in = shard->stolen_in.load(std::memory_order_relaxed);
    s.modeled_busy_seconds = shard->backend->modeled_busy_seconds();
    s.modeled_launches = shard->backend->modeled_launches();
    s.queue_depth = shard->server->queue_depth();
    s.metrics = shard->server->metrics();
    snap.shards.push_back(std::move(s));
  }
  return snap;
}

rng::Philox ShardedSamplingServer::gamma_stream(RequestId id) const {
  return shards_[0]->server->gamma_stream(id);
}

rng::Philox ShardedSamplingServer::sector_stream(RequestId id,
                                                 std::size_t k) const {
  return shards_[0]->server->sector_stream(id, k);
}

std::uint64_t ShardedSamplingServer::poisson_seed(RequestId id) const {
  return shards_[0]->server->poisson_seed(id);
}

}  // namespace dwi::serve
