// Sharded-cluster tests (serve/cluster.h):
//   * the cross-shard determinism matrix — a fixed request set with a
//     fixed server seed yields bit-identical responses across shard
//     counts {1, 2, 4, 8}, both routing policies, stealing on/off,
//     thread counts, and heterogeneous device bindings (FPGA / CPU /
//     GPU / PHI shards);
//   * consistent-hash ring properties: per-shard load balanced within
//     bounds, minimal remap when a shard is added or removed,
//     preference order starts at the owner and covers every shard;
//   * router backpressure: a full shard surfaces typed kQueueFull
//     through the router (steal off), and retry-on-next-shard admits
//     the overflow elsewhere (steal on) with identical response bytes;
//   * offline reproduction at cluster scope: any served response is
//     recomputable from (server_seed, request id) alone via
//     Philox::seek, placement unknown and unneeded.
//   * served CreditRisk+ requests (sector work-items on the exec pool)
//     equal the per-draw simulate_losses oracle across books, scenario
//     counts and pool sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "finance/creditrisk_plus.h"
#include "finance/portfolio.h"
#include "minicl/shard_backend.h"
#include "rng/gamma.h"
#include "rng/philox.h"
#include "serve/cluster.h"
#include "serve/sampling_server.h"

namespace dwi {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { exec::set_thread_count(0); }
};

std::shared_ptr<const finance::Portfolio> test_portfolio() {
  static const auto portfolio =
      std::make_shared<const finance::Portfolio>(finance::Portfolio::synthetic(
          16, {{1.39, "representative"}, {0.8, "stable"}}, 7u));
  return portfolio;
}

/// The per-draw oracle of a served CreditRisk+ response: one scalar
/// sampler per sector pulling its substream one word at a time through
/// a GammaSource callback into finance::simulate_losses. `server` is a
/// SamplingServer or a ShardedSamplingServer (same stream accessors).
template <typename Server>
finance::LossDistribution per_draw_credit_oracle(
    const Server& server, const serve::CreditRiskRequest& req) {
  const finance::Portfolio& portfolio = *req.portfolio;
  struct SectorStream {
    rng::GammaSampler sampler;
    rng::Philox px;
  };
  std::vector<SectorStream> streams;
  for (std::size_t k = 0; k < portfolio.num_sectors(); ++k) {
    streams.push_back(SectorStream{
        rng::GammaSampler(rng::GammaConstants::from_sector_variance(
                              static_cast<float>(
                                  portfolio.sectors()[k].variance)),
                          rng::NormalTransform::kMarsagliaBray),
        server.sector_stream(req.id, k)});
  }
  const finance::GammaSource source =
      [&streams](std::uint64_t, std::size_t sector) -> double {
    SectorStream& s = streams[sector];
    const std::function<std::uint32_t()> next = [&s] { return s.px.next(); };
    return static_cast<double>(s.sampler.sample(next));
  };
  finance::McConfig mc;
  mc.num_scenarios = req.num_scenarios;
  mc.seed = server.poisson_seed(req.id);
  return finance::simulate_losses(portfolio, mc, source);
}

void expect_credit_matches(const serve::CreditRiskResult& served,
                           const finance::LossDistribution& dist) {
  EXPECT_EQ(served.scenarios, dist.scenarios());
  EXPECT_EQ(served.mean, dist.mean());
  EXPECT_EQ(served.variance, dist.variance());
  EXPECT_EQ(served.var95, dist.value_at_risk(0.95));
  EXPECT_EQ(served.var999, dist.value_at_risk(0.999));
  EXPECT_EQ(served.es999, dist.expected_shortfall(0.999));
}

/// One matrix item — any of the five request kinds, discriminated the
/// same way the scheduler does.
struct RequestItem {
  serve::RequestKind kind = serve::RequestKind::kGamma;
  serve::GammaRequest gamma;
  serve::CreditRiskRequest credit;
  serve::HistogramRequest histogram;
  serve::SpmvRequest spmv;
  serve::MatchingRequest matching;
};

/// Mixed set over ALL FIVE request kinds with ids spread enough for
/// the hash ring to scatter them across shards. The zoo kinds ride the
/// same matrix cells as gamma/CreditRisk+ — placement must be
/// invisible in their payloads AND their cycle stats.
std::vector<RequestItem> mixed_request_set() {
  const float alphas[3] = {0.72f, 1.5f, 4.0f};
  std::vector<RequestItem> items;
  for (std::size_t i = 0; i < 24; ++i) {
    RequestItem item;
    const serve::RequestId id = 1000 + i * 17;
    switch (i % 6) {
      case 2:
        item.kind = serve::RequestKind::kCreditRisk;
        item.credit.id = id;
        item.credit.portfolio = test_portfolio();
        item.credit.num_scenarios = 48;
        break;
      case 3:
        item.kind = serve::RequestKind::kHistogram;
        item.histogram.id = id;
        item.histogram.num_updates = 600;
        item.histogram.num_bins = 64;
        item.histogram.hot_fraction = 0.3f;
        if (i % 2 == 1) {
          item.histogram.mode = workloads::SchedulingMode::kStatic;
        }
        break;
      case 4:
        item.kind = serve::RequestKind::kSpmv;
        item.spmv.id = id;
        item.spmv.rows = 96;
        item.spmv.nnz_per_row_max = 5;
        break;
      case 5:
        item.kind = serve::RequestKind::kMatching;
        item.matching.id = id;
        item.matching.num_vertices = 120;
        item.matching.num_edges = 300;
        item.matching.target_pairs = (i % 4 == 1) ? 20u : 0u;
        break;
      default:
        item.gamma.id = id;
        item.gamma.alpha = alphas[i % 3];
        item.gamma.scale = 1.39f;
        item.gamma.count = 129;  // off a block boundary on purpose
        break;
    }
    items.push_back(item);
  }
  return items;
}

struct ServedResults {
  std::vector<serve::GammaResult> gamma;        // by set position
  std::vector<serve::CreditRiskResult> credit;  // by set position
  std::vector<serve::HistogramResult> histogram;
  std::vector<serve::SpmvResult> spmv;
  std::vector<serve::MatchingResult> matching;
};

ServedResults serve_set(serve::ShardedSamplingServer& cluster,
                        const std::vector<RequestItem>& items) {
  std::vector<std::future<serve::GammaResult>> gf(items.size());
  std::vector<std::future<serve::CreditRiskResult>> cf(items.size());
  std::vector<std::future<serve::HistogramResult>> hf(items.size());
  std::vector<std::future<serve::SpmvResult>> sf(items.size());
  std::vector<std::future<serve::MatchingResult>> mf(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    switch (items[i].kind) {
      case serve::RequestKind::kGamma:
        gf[i] = cluster.submit(items[i].gamma);
        break;
      case serve::RequestKind::kCreditRisk:
        cf[i] = cluster.submit(items[i].credit);
        break;
      case serve::RequestKind::kHistogram:
        hf[i] = cluster.submit(items[i].histogram);
        break;
      case serve::RequestKind::kSpmv:
        sf[i] = cluster.submit(items[i].spmv);
        break;
      case serve::RequestKind::kMatching:
        mf[i] = cluster.submit(items[i].matching);
        break;
    }
  }
  ServedResults out;
  out.gamma.resize(items.size());
  out.credit.resize(items.size());
  out.histogram.resize(items.size());
  out.spmv.resize(items.size());
  out.matching.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    switch (items[i].kind) {
      case serve::RequestKind::kGamma: out.gamma[i] = gf[i].get(); break;
      case serve::RequestKind::kCreditRisk: out.credit[i] = cf[i].get(); break;
      case serve::RequestKind::kHistogram:
        out.histogram[i] = hf[i].get();
        break;
      case serve::RequestKind::kSpmv: out.spmv[i] = sf[i].get(); break;
      case serve::RequestKind::kMatching:
        out.matching[i] = mf[i].get();
        break;
    }
  }
  return out;
}

void expect_identical_stats(const serve::WorkloadStatsResult& a,
                            const serve::WorkloadStatsResult& b) {
  // Cycle accounting is part of the response, so it is held to the
  // same bit-identity bar as the payload.
  ASSERT_EQ(a.cycles, b.cycles);
  ASSERT_EQ(a.initiations, b.initiations);
  ASSERT_EQ(a.hazard_stall_cycles, b.hazard_stall_cycles);
  ASSERT_EQ(a.forwarded, b.forwarded);
  ASSERT_EQ(a.skipped, b.skipped);
}

void expect_identical(const ServedResults& a, const ServedResults& b,
                      const std::vector<RequestItem>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    SCOPED_TRACE(::testing::Message()
                 << "request " << i << " kind="
                 << serve::to_string(items[i].kind));
    switch (items[i].kind) {
      case serve::RequestKind::kGamma:
        ASSERT_EQ(a.gamma[i].id, b.gamma[i].id);
        ASSERT_EQ(a.gamma[i].attempts, b.gamma[i].attempts);
        // Bit-identity: the float vectors must match exactly.
        ASSERT_EQ(a.gamma[i].samples, b.gamma[i].samples);
        break;
      case serve::RequestKind::kCreditRisk:
        ASSERT_EQ(a.credit[i].id, b.credit[i].id);
        ASSERT_EQ(a.credit[i].mean, b.credit[i].mean);
        ASSERT_EQ(a.credit[i].variance, b.credit[i].variance);
        ASSERT_EQ(a.credit[i].var95, b.credit[i].var95);
        ASSERT_EQ(a.credit[i].var999, b.credit[i].var999);
        ASSERT_EQ(a.credit[i].es999, b.credit[i].es999);
        break;
      case serve::RequestKind::kHistogram:
        ASSERT_EQ(a.histogram[i].bins, b.histogram[i].bins);
        expect_identical_stats(a.histogram[i].stats, b.histogram[i].stats);
        break;
      case serve::RequestKind::kSpmv:
        ASSERT_EQ(a.spmv[i].y, b.spmv[i].y);
        ASSERT_EQ(a.spmv[i].nnz, b.spmv[i].nnz);
        expect_identical_stats(a.spmv[i].stats, b.spmv[i].stats);
        break;
      case serve::RequestKind::kMatching:
        ASSERT_EQ(a.matching[i].match, b.matching[i].match);
        ASSERT_EQ(a.matching[i].pairs, b.matching[i].pairs);
        ASSERT_EQ(a.matching[i].edges_examined, b.matching[i].edges_examined);
        expect_identical_stats(a.matching[i].stats, b.matching[i].stats);
        break;
    }
  }
}

// ---------------------------------------------------------------------
// Cross-shard determinism matrix
// ---------------------------------------------------------------------

struct MatrixCell {
  std::size_t shards;
  serve::RouterPolicy policy;
  bool steal;
  unsigned threads;  // exec pool size for the cell
};

TEST(ClusterDeterminism, MatrixBitIdenticalAcrossShardsPoliciesStealResident) {
  ThreadCountGuard guard;
  const auto items = mixed_request_set();

  serve::ClusterConfig base;
  base.shard.server_seed = 42;
  base.shard.queue_capacity = items.size() + 1;
  // Heterogeneous device bindings, cycled across shards: WHERE a
  // request lands (which shard, which accelerator model) must be
  // invisible in the bytes.
  base.devices = {minicl::BackendKind::kFpga, minicl::BackendKind::kCpu,
                  minicl::BackendKind::kGpu, minicl::BackendKind::kPhi};

  // Reference: one shard, no stealing, one thread.
  exec::set_thread_count(1);
  ServedResults reference;
  {
    serve::ClusterConfig cfg = base;
    cfg.num_shards = 1;
    cfg.steal = false;
    serve::ShardedSamplingServer cluster(cfg);
    reference = serve_set(cluster, items);
  }

  const MatrixCell cells[] = {
      // Shard-count sweep at defaults (hash routing, steal on).
      {1, serve::RouterPolicy::kConsistentHash, true, 1},
      {2, serve::RouterPolicy::kConsistentHash, true, 1},
      {4, serve::RouterPolicy::kConsistentHash, true, 1},
      {8, serve::RouterPolicy::kConsistentHash, true, 1},
      // Each remaining dimension flipped at 4 shards.
      {4, serve::RouterPolicy::kLeastLoaded, true, 1},
      {4, serve::RouterPolicy::kConsistentHash, false, 1},
      {4, serve::RouterPolicy::kConsistentHash, true, 4},
      // Everything at once.
      {2, serve::RouterPolicy::kLeastLoaded, false, 4},
      {8, serve::RouterPolicy::kLeastLoaded, true, 2},
  };

  for (const MatrixCell& cell : cells) {
    exec::set_thread_count(cell.threads);
    serve::ClusterConfig cfg = base;
    cfg.num_shards = cell.shards;
    cfg.policy = cell.policy;
    cfg.steal = cell.steal;
    serve::ShardedSamplingServer cluster(cfg);
    const ServedResults got = serve_set(cluster, items);
    SCOPED_TRACE(::testing::Message()
                 << "shards=" << cell.shards << " policy="
                 << serve::to_string(cell.policy) << " steal=" << cell.steal
                 << " threads=" << cell.threads);
    expect_identical(reference, got, items);

    const serve::ClusterSnapshot snap = cluster.metrics();
    EXPECT_EQ(snap.submitted, items.size());
    EXPECT_EQ(snap.admitted, items.size());
    EXPECT_EQ(snap.rejected_full, 0u);
    // Every admitted request was mirrored onto exactly one device.
    std::uint64_t launches = 0;
    std::uint64_t placed = 0;
    for (const serve::ShardSnapshot& s : snap.shards) {
      launches += s.modeled_launches;
      placed += s.routed_primary + s.stolen_in;
    }
    EXPECT_EQ(launches, items.size());
    EXPECT_EQ(placed, items.size());
  }
}

TEST(ClusterDeterminism, ShardCountsMatchOneShard) {
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  const auto items = mixed_request_set();

  serve::ClusterConfig cfg;
  cfg.shard.server_seed = 7;
  cfg.shard.queue_capacity = items.size() + 1;

  cfg.num_shards = 1;
  ServedResults reference;
  {
    serve::ShardedSamplingServer cluster(cfg);
    reference = serve_set(cluster, items);
  }
  for (const std::size_t shards : {2u, 4u, 8u}) {
    cfg.num_shards = shards;
    serve::ShardedSamplingServer cluster(cfg);
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    expect_identical(reference, serve_set(cluster, items), items);
  }
}

// ---------------------------------------------------------------------
// Consistent-hash ring properties
// ---------------------------------------------------------------------

TEST(ConsistentHashRing, BalanceWithinBounds) {
  serve::ConsistentHashRing ring(64);
  const std::size_t shards = 8;
  for (std::size_t s = 0; s < shards; ++s) ring.add_shard(s);

  const std::size_t keys = 20'000;
  std::vector<std::size_t> hits(shards, 0);
  for (std::size_t k = 0; k < keys; ++k) ++hits[ring.shard_for(k)];

  const double mean = static_cast<double>(keys) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    // 64 vnodes per shard keeps arc-length variance modest; the hash is
    // fixed, so these bounds are deterministic, not statistical.
    EXPECT_GT(hits[s], mean / 2.5) << "shard " << s << " starved";
    EXPECT_LT(hits[s], mean * 2.5) << "shard " << s << " overloaded";
  }
}

TEST(ConsistentHashRing, AddingShardRemapsOnlyToTheNewShard) {
  serve::ConsistentHashRing before(64);
  serve::ConsistentHashRing after(64);
  for (std::size_t s = 0; s < 4; ++s) {
    before.add_shard(s);
    after.add_shard(s);
  }
  after.add_shard(4);

  const std::size_t keys = 10'000;
  std::size_t moved = 0;
  for (std::size_t k = 0; k < keys; ++k) {
    const std::size_t a = before.shard_for(k);
    const std::size_t b = after.shard_for(k);
    if (a != b) {
      // A key may only move TO the new shard — everything else is owned
      // by the same vnode arc it was owned by before.
      EXPECT_EQ(b, 4u) << "key " << k << " moved " << a << "->" << b;
      ++moved;
    }
  }
  // Expected share of the new shard is 1/5 of the keys; minimal remap
  // means the moved fraction is near that, not near 1.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, keys * 2 / 5);
}

TEST(ConsistentHashRing, RemovingShardStrandsOnlyItsKeys) {
  serve::ConsistentHashRing before(64);
  serve::ConsistentHashRing after(64);
  for (std::size_t s = 0; s < 5; ++s) {
    before.add_shard(s);
    after.add_shard(s);
  }
  after.remove_shard(2);
  EXPECT_EQ(after.num_shards(), 4u);

  const std::size_t keys = 10'000;
  for (std::size_t k = 0; k < keys; ++k) {
    const std::size_t a = before.shard_for(k);
    const std::size_t b = after.shard_for(k);
    if (a != 2) {
      // Keys not owned by the removed shard must not move at all.
      EXPECT_EQ(a, b) << "key " << k;
    } else {
      EXPECT_NE(b, 2u) << "key " << k << " still on removed shard";
    }
  }
}

TEST(ConsistentHashRing, PreferenceOrderStartsAtOwnerAndCoversAllShards) {
  serve::ConsistentHashRing ring(32);
  for (std::size_t s = 0; s < 6; ++s) ring.add_shard(s);
  for (std::uint64_t key = 0; key < 500; ++key) {
    const std::vector<std::size_t> order = ring.preference_order(key);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order.front(), ring.shard_for(key));
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t s = 0; s < 6; ++s) EXPECT_EQ(sorted[s], s);
  }
}

// ---------------------------------------------------------------------
// Router backpressure: typed kQueueFull, retry-on-next-shard
// ---------------------------------------------------------------------

/// Saturate the primary shard for `id`: one heavy blocker occupying its
/// scheduler plus queue_capacity queued requests behind it. Returns the
/// admitted futures.
std::vector<std::future<serve::CreditRiskResult>> saturate_primary(
    serve::ShardedSamplingServer& cluster, serve::RequestId id,
    std::uint64_t heavy_scenarios) {
  serve::CreditRiskRequest req;
  req.id = id;
  req.portfolio = test_portfolio();
  req.num_scenarios = heavy_scenarios;

  std::vector<std::future<serve::CreditRiskResult>> futures;
  futures.push_back(cluster.submit(req));

  // Wait for the shard's dispatcher to pop the blocker; from here it is
  // busy for a long while and everything below queues behind it.
  serve::SamplingServer& primary =
      cluster.shard(cluster.placement_order(id)[0]);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (primary.queue_depth() != 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "blocker never dispatched";
      return futures;
    }
    std::this_thread::yield();
  }
  for (std::size_t i = 0; i < cluster.config().shard.queue_capacity; ++i) {
    futures.push_back(cluster.submit(req));
  }
  return futures;
}

serve::ClusterConfig backpressure_config(bool steal) {
  serve::ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.steal = steal;
  cfg.shard.queue_capacity = 2;
  cfg.shard.max_batch = 1;  // the blocker must occupy the shard alone
  return cfg;
}

TEST(ClusterBackpressure, FullShardReturnsTypedQueueFullWithoutStealing) {
  ThreadCountGuard guard;
  exec::set_thread_count(1);
  serve::ShardedSamplingServer cluster(backpressure_config(false));

  const serve::RequestId id = 77;
  auto futures = saturate_primary(cluster, id, 20'000);

  serve::CreditRiskRequest overflow;
  overflow.id = id;
  overflow.portfolio = test_portfolio();
  overflow.num_scenarios = 20'000;
  std::future<serve::CreditRiskResult> f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(cluster.try_submit(overflow, &f), serve::ServeStatus::kQueueFull);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Rejected fast and typed — the router never blocks the caller.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);

  const serve::ClusterSnapshot snap = cluster.metrics();
  EXPECT_EQ(snap.rejected_full, 1u);
  EXPECT_EQ(snap.stolen, 0u);
  EXPECT_EQ(snap.admitted, futures.size());

  // No silent drop: every admitted future is fulfilled with a real
  // result, and — same id, same seed — all results are byte-identical.
  const serve::CreditRiskResult first = futures[0].get();
  for (std::size_t i = 1; i < futures.size(); ++i) {
    const serve::CreditRiskResult r = futures[i].get();
    EXPECT_EQ(r.mean, first.mean);
    EXPECT_EQ(r.var999, first.var999);
  }
}

TEST(ClusterBackpressure, StealRetriesNextShardWhenPrimaryIsFull) {
  ThreadCountGuard guard;
  exec::set_thread_count(1);
  serve::ShardedSamplingServer cluster(backpressure_config(true));

  const serve::RequestId id = 77;
  auto futures = saturate_primary(cluster, id, 20'000);
  const std::vector<std::size_t> order = cluster.placement_order(id);

  serve::CreditRiskRequest overflow;
  overflow.id = id;
  overflow.portfolio = test_portfolio();
  overflow.num_scenarios = 20'000;
  std::future<serve::CreditRiskResult> stolen_future;
  // Primary full -> retry-on-next-shard admits on the secondary.
  ASSERT_EQ(cluster.try_submit(overflow, &stolen_future),
            serve::ServeStatus::kAdmitted);

  const serve::ClusterSnapshot snap = cluster.metrics();
  EXPECT_EQ(snap.stolen, 1u);
  EXPECT_EQ(snap.rejected_full, 0u);
  EXPECT_EQ(snap.shards[order[1]].stolen_in, 1u);
  EXPECT_EQ(snap.shards[order[1]].routed_primary, 0u);

  // The stolen response is byte-identical to the primary's — placement
  // is invisible in the bytes.
  const serve::CreditRiskResult primary_result = futures[0].get();
  const serve::CreditRiskResult stolen_result = stolen_future.get();
  EXPECT_EQ(stolen_result.mean, primary_result.mean);
  EXPECT_EQ(stolen_result.variance, primary_result.variance);
  EXPECT_EQ(stolen_result.var95, primary_result.var95);
  EXPECT_EQ(stolen_result.var999, primary_result.var999);
  EXPECT_EQ(stolen_result.es999, primary_result.es999);
  for (std::size_t i = 1; i < futures.size(); ++i) futures[i].get();
}

TEST(ClusterRouting, LeastLoadedPrefersTheIdleShard) {
  ThreadCountGuard guard;
  exec::set_thread_count(1);
  serve::ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.policy = serve::RouterPolicy::kLeastLoaded;
  cfg.shard.queue_capacity = 8;
  cfg.shard.max_batch = 1;
  serve::ShardedSamplingServer cluster(cfg);

  serve::CreditRiskRequest heavy;
  heavy.id = 1;
  heavy.portfolio = test_portfolio();
  heavy.num_scenarios = 20'000;

  // Empty cluster: depths tie, lowest index wins.
  EXPECT_EQ(cluster.placement_order(1)[0], 0u);
  auto blocker = cluster.submit(heavy);  // -> shard 0
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cluster.shard(0).queue_depth() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  auto queued = cluster.submit(heavy);  // -> shard 0, stays queued
  // Shard 0 now has queued work; the next placement prefers shard 1.
  EXPECT_EQ(cluster.placement_order(2)[0], 1u);
  blocker.get();
  queued.get();
}

TEST(ClusterLifecycle, ShutdownDrainsAllShardsAndRejectsLate) {
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  serve::ClusterConfig cfg;
  cfg.num_shards = 4;
  serve::ShardedSamplingServer cluster(cfg);

  std::vector<std::future<serve::GammaResult>> futures;
  for (std::uint64_t i = 0; i < 16; ++i) {
    serve::GammaRequest req;
    req.id = i + 1;
    req.count = 64;
    futures.push_back(cluster.submit(req));
  }
  cluster.shutdown();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::GammaResult r = futures[i].get();
    EXPECT_EQ(r.id, i + 1);
    EXPECT_EQ(r.samples.size(), 64u);
  }
  serve::GammaRequest late;
  late.id = 999;
  late.count = 8;
  std::future<serve::GammaResult> f;
  EXPECT_EQ(cluster.try_submit(late, &f),
            serve::ServeStatus::kShuttingDown);
  EXPECT_EQ(cluster.metrics().rejected_shutdown, 1u);
}

TEST(ClusterValidation, InvalidRequestRejectsThroughRouter) {
  serve::ShardedSamplingServer cluster{serve::ClusterConfig{}};
  serve::GammaRequest bad;
  bad.id = 1;
  bad.count = 0;  // invalid
  std::future<serve::GammaResult> f;
  EXPECT_EQ(cluster.try_submit(bad, &f), serve::ServeStatus::kInvalidRequest);
  EXPECT_EQ(cluster.metrics().rejected_invalid, 1u);
  EXPECT_EQ(cluster.metrics().admitted, 0u);
}

TEST(ServeValidation, InfiniteExposureBookIsInvalidOnServerAndCluster) {
  // A book with an infinite exposure loses 0 · ∞ = NaN in every scenario
  // where that obligor does not default. The server and a 2-shard
  // cluster refuse it with a typed error; computing it once aborted the
  // process in the expected shortfall.
  const auto book = std::make_shared<const finance::Portfolio>(
      std::vector<finance::Sector>{{1.39, "a"}, {0.8, "b"}},
      std::vector<finance::Obligor>{
          {1.0, 0.01, {0.5, 0.2}},
          {std::numeric_limits<double>::infinity(), 0.02, {0.3, 0.3}},
          {3.0, 0.05, {0.0, 0.9}}});
  const serve::CreditRiskRequest req{7, book, 2000};
  serve::SamplingServer server;
  serve::ClusterConfig cfg;
  cfg.num_shards = 2;
  serve::ShardedSamplingServer cluster{cfg};
  std::future<serve::CreditRiskResult> f;
  EXPECT_EQ(server.try_submit(req, &f), serve::ServeStatus::kInvalidRequest);
  EXPECT_EQ(cluster.try_submit(req, &f), serve::ServeStatus::kInvalidRequest);
  try {
    (void)server.run(req);
    FAIL() << "an infinite exposure must be refused";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.status(), serve::ServeStatus::kInvalidRequest);
  }
  try {
    (void)cluster.run(req);
    FAIL() << "an infinite exposure must be refused";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.status(), serve::ServeStatus::kInvalidRequest);
  }
  EXPECT_EQ(server.metrics().rejected_invalid, 2u);
  EXPECT_EQ(cluster.metrics().rejected_invalid, 2u);
  EXPECT_EQ(cluster.metrics().admitted, 0u);
}

TEST(ClusterValidation, ZeroShardBoundsThrowTypedErrors) {
  // The per-shard admission bounds reach every shard's scheduler as
  // given, so a zero throws from the cluster constructor too.
  serve::ClusterConfig no_queue;
  no_queue.shard.queue_capacity = 0;
  try {
    serve::ShardedSamplingServer cluster(no_queue);
    FAIL() << "shard queue_capacity = 0 was accepted";
  } catch (const dwi::Error& e) {
    EXPECT_NE(std::string(e.what()).find("queue capacity"), std::string::npos)
        << e.what();
  }
  serve::ClusterConfig no_batch;
  no_batch.shard.max_batch = 0;
  try {
    serve::ShardedSamplingServer cluster(no_batch);
    FAIL() << "shard max_batch = 0 was accepted";
  } catch (const dwi::Error& e) {
    EXPECT_NE(std::string(e.what()).find("max_batch"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Offline reproduction at cluster scope (Philox::seek)
// ---------------------------------------------------------------------

TEST(ClusterOfflineReproduction, SeekRecomputesServedResponsesByteExact) {
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  serve::ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.shard.server_seed = 42;
  serve::ShardedSamplingServer cluster(cfg);

  serve::GammaRequest greq;
  greq.id = 31337;
  greq.alpha = 1.5f;
  greq.scale = 2.0f;
  greq.count = 500;
  const serve::GammaResult served_gamma = cluster.run(greq);

  serve::CreditRiskRequest creq;
  creq.id = 424242;
  creq.portfolio = test_portfolio();
  creq.num_scenarios = 200;
  const serve::CreditRiskResult served_credit = cluster.run(creq);
  cluster.shutdown();

  // Gamma: rebuild the request's uniform tape from scratch — a fresh
  // Philox seeked to the request's substream base, no cluster state.
  {
    rng::Philox px(cfg.shard.server_seed);
    px.seek(greq.id * cfg.shard.substreams_per_request *
            cfg.shard.substream_stride);
    rng::GammaSampler sampler(
        rng::GammaConstants::make(greq.alpha, greq.scale), greq.transform);
    std::vector<float> expect(greq.count);
    sampler.sample_block(px, expect.data(), expect.size());
    EXPECT_EQ(served_gamma.samples, expect);
    EXPECT_EQ(served_gamma.attempts, sampler.attempts());
  }

  // CreditRisk+: recompute the full response on the cluster's stream
  // accessors (shard-independent by construction).
  expect_credit_matches(served_credit,
                        per_draw_credit_oracle(cluster, creq));
}

TEST(ServeCreditRisk, SectorWorkItemsMatchThePerDrawOracle) {
  // The served CreditRisk+ path samples each sector as a work-item on
  // the exec pool, a wave of scenarios at a time, and aggregates in
  // intensity chunks and a serial consumer; every response must equal
  // the per-draw oracle for books of 1, 8 and 15 sectors, scenario
  // counts around 4096 and one of 9 · 4096 + 11 (many more waves than
  // run_sector_waves keeps draw buffers for), and pools of 1, 2, 3 and 8
  // threads (an uneven pool included).
  ThreadCountGuard guard;
  std::vector<std::shared_ptr<const finance::Portfolio>> books;
  for (const std::size_t sectors : {1u, 8u, 15u}) {
    std::vector<finance::Sector> list;
    for (std::size_t k = 0; k < sectors; ++k) {
      list.push_back({0.3 + 0.2 * static_cast<double>(k % 8), "s"});
    }
    books.push_back(std::make_shared<const finance::Portfolio>(
        finance::Portfolio::synthetic(24, list, 3u + sectors)));
  }
  const std::uint64_t counts[] = {2,    255,  4095,  4096,
                                  4097, 10000, 9 * 4096 + 11};

  serve::ServeConfig cfg;
  cfg.server_seed = 77;
  std::vector<serve::CreditRiskRequest> requests;
  std::vector<finance::LossDistribution> oracle;
  {
    serve::SamplingServer reference(cfg);
    for (const auto& book : books) {
      for (const std::uint64_t n : counts) {
        serve::CreditRiskRequest req;
        req.id = 500 + requests.size();
        req.portfolio = book;
        req.num_scenarios = n;
        oracle.push_back(per_draw_credit_oracle(reference, req));
        requests.push_back(std::move(req));
      }
    }
  }
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    exec::set_thread_count(threads);
    serve::SamplingServer server(cfg);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " sectors=" +
                   std::to_string(requests[i].portfolio->num_sectors()) +
                   " scenarios=" +
                   std::to_string(requests[i].num_scenarios));
      expect_credit_matches(server.run(requests[i]), oracle[i]);
      if (HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------
// Shard backends
// ---------------------------------------------------------------------

TEST(ShardBackend, FreshDevicePerShardAccumulatesModeledTime) {
  auto fpga = minicl::make_shard_backend(minicl::BackendKind::kFpga, 0);
  auto cpu = minicl::make_shard_backend(minicl::BackendKind::kCpu, 1);
  EXPECT_NE(fpga->name(), cpu->name());
  EXPECT_EQ(fpga->modeled_launches(), 0u);

  fpga->account(4096, 1.39f);
  const double once = fpga->modeled_busy_seconds();
  EXPECT_GT(once, 0.0);
  fpga->account(4096, 1.39f);  // memoized shape: same time again
  EXPECT_EQ(fpga->modeled_launches(), 2u);
  EXPECT_DOUBLE_EQ(fpga->modeled_busy_seconds(), 2.0 * once);

  cpu->account(4096, 1.39f);
  EXPECT_GT(cpu->modeled_busy_seconds(), 0.0);
  // Independent instances: the FPGA's account is untouched.
  EXPECT_DOUBLE_EQ(fpga->modeled_busy_seconds(), 2.0 * once);
}

// ---------------------------------------------------------------------
// Repeated requests at cluster scope
// ---------------------------------------------------------------------

TEST(ClusterDeterminism, RepeatedPassesReturnTheReferenceBytes) {
  // The same request set served twice by one 4-shard cluster: both
  // passes equal a fresh single-shard reference, and every repeat is
  // computed (and charged to a modeled device) again.
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  const auto items = mixed_request_set();

  serve::ClusterConfig cfg;
  cfg.num_shards = 1;
  ServedResults reference;
  {
    serve::ShardedSamplingServer cluster(cfg);
    reference = serve_set(cluster, items);
  }

  cfg.num_shards = 4;
  serve::ShardedSamplingServer cluster(cfg);
  expect_identical(reference, serve_set(cluster, items), items);
  expect_identical(reference, serve_set(cluster, items), items);

  std::uint64_t launches = 0;
  std::uint64_t completed = 0;
  for (const serve::ShardSnapshot& shard : cluster.metrics().shards) {
    launches += shard.modeled_launches;
    completed += shard.metrics.completed;
  }
  EXPECT_EQ(launches, 2 * items.size());
  EXPECT_EQ(completed, 2 * items.size());
}

}  // namespace
}  // namespace dwi
