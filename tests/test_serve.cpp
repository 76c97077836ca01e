// Serving-layer tests (src/serve):
//   * determinism contract: a fixed request set with a fixed server
//     seed yields bit-identical per-request results across thread
//     counts (1, 4, hardware), max_batch 1 or 16, and shuffled
//     submission order, at two server seeds;
//   * the served result equals the offline computation on the
//     request's substream (no hidden server state);
//   * backpressure: a full admission queue rejects fast with a typed
//     status, nothing admitted is ever dropped;
//   * graceful shutdown drains all in-flight work and rejects late
//     submissions;
//   * validation rejects malformed requests with kInvalidRequest,
//     including ids and sector counts at the edge of a request's
//     substream block;
//   * the response bytes of a fixed request set are pinned, on one
//     server and on a two-shard cluster;
//   * metrics: counters and nearest-rank latency percentiles;
//   * RingBuffer edge cases under the serve workload shapes (job-sized
//     payloads): full-queue rejection, wraparound at capacity
//     boundaries, destruction with items still enqueued;
//   * the generic entry point, typed over every request kind: server
//     and cluster agree byte for byte, a repeated request is recomputed
//     and charged to the modeled device again, an invalid request
//     throws RejectedError.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/ring_buffer.h"
#include "exec/thread_pool.h"
#include "finance/portfolio.h"
#include "rng/gamma.h"
#include "rng/jump.h"
#include "rng/mersenne_twister.h"
#include "rng/philox.h"
#include "serve/batch_scheduler.h"
#include "serve/cluster.h"
#include "serve/metrics.h"
#include "serve/sampling_server.h"
#include "workloads/histogram.h"
#include "workloads/matching.h"
#include "workloads/spmv.h"

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

struct RequestItem {
  bool is_gamma = true;
  serve::GammaRequest gamma;
  serve::CreditRiskRequest credit;
};

std::vector<RequestItem> mixed_request_set() {
  const float alphas[3] = {0.72f, 1.5f, 4.0f};
  std::vector<RequestItem> items;
  for (std::size_t i = 0; i < 18; ++i) {
    RequestItem item;
    if (i % 6 == 5) {
      item.is_gamma = false;
      item.credit.id = i + 1;
      item.credit.portfolio = test_portfolio();
      item.credit.num_scenarios = 64;
    } else {
      item.gamma.id = i + 1;
      item.gamma.alpha = alphas[i % 3];
      item.gamma.scale = 1.39f;
      item.gamma.count = 257;  // off a block boundary on purpose
    }
    items.push_back(item);
  }
  return items;
}

struct ServedResults {
  std::vector<serve::GammaResult> gamma;        // by set position
  std::vector<serve::CreditRiskResult> credit;  // by set position
};

/// Works for a SamplingServer and a ShardedSamplingServer alike.
template <typename Server>
ServedResults serve_set(Server& server, const std::vector<RequestItem>& items,
                        const std::vector<std::size_t>& order) {
  std::vector<std::future<serve::GammaResult>> gf(items.size());
  std::vector<std::future<serve::CreditRiskResult>> cf(items.size());
  for (const std::size_t i : order) {
    if (items[i].is_gamma) {
      gf[i] = server.submit(items[i].gamma);
    } else {
      cf[i] = server.submit(items[i].credit);
    }
  }
  ServedResults out;
  out.gamma.resize(items.size());
  out.credit.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].is_gamma) {
      out.gamma[i] = gf[i].get();
    } else {
      out.credit[i] = cf[i].get();
    }
  }
  return out;
}

void expect_identical(const ServedResults& a, const ServedResults& b,
                      const std::vector<RequestItem>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].is_gamma) {
      ASSERT_EQ(a.gamma[i].id, b.gamma[i].id);
      ASSERT_EQ(a.gamma[i].attempts, b.gamma[i].attempts);
      // Bit-identity: the float vectors must match exactly.
      ASSERT_EQ(a.gamma[i].samples, b.gamma[i].samples) << "request " << i;
    } else {
      ASSERT_EQ(a.credit[i].id, b.credit[i].id);
      ASSERT_EQ(a.credit[i].mean, b.credit[i].mean) << "request " << i;
      ASSERT_EQ(a.credit[i].variance, b.credit[i].variance);
      ASSERT_EQ(a.credit[i].var95, b.credit[i].var95);
      ASSERT_EQ(a.credit[i].var999, b.credit[i].var999);
      ASSERT_EQ(a.credit[i].es999, b.credit[i].es999);
    }
  }
}

// ---------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------

// The full determinism matrix at one server seed: thread count,
// max_batch and arrival order move nothing.
void expect_bit_identical_matrix(std::uint32_t seed) {
  ThreadCountGuard guard;
  const auto items = mixed_request_set();
  std::vector<std::size_t> natural(items.size());
  std::iota(natural.begin(), natural.end(), std::size_t{0});
  std::vector<std::size_t> shuffled = natural;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(99));

  serve::ServeConfig cfg;
  cfg.server_seed = seed;
  cfg.queue_capacity = items.size() + 1;

  exec::set_thread_count(1);
  cfg.max_batch = 1;
  ServedResults reference;
  {
    serve::SamplingServer server(cfg);
    reference = serve_set(server, items, natural);
  }

  struct Cell {
    unsigned threads;
    std::size_t max_batch;
    bool shuffle;
  };
  const unsigned hw = exec::ExecConfig{}.resolved();
  for (const Cell cell : {Cell{4, 16, false}, Cell{4, 1, true},
                          Cell{hw, 16, true}, Cell{1, 16, true}}) {
    exec::set_thread_count(cell.threads);
    cfg.max_batch = cell.max_batch;
    serve::SamplingServer server(cfg);
    const ServedResults got =
        serve_set(server, items, cell.shuffle ? shuffled : natural);
    expect_identical(reference, got, items);
  }
}

TEST(ServeDeterminism, BitIdenticalAcrossThreadsBatchingAndOrder) {
  expect_bit_identical_matrix(42);
}

TEST(ServeDeterminism, CounterBasedBitIdenticalAcrossThreadsBatchingAndOrder) {
  // A second server seed: the O(1) counter-based substream derivation
  // holds the contract for any seed.
  expect_bit_identical_matrix(7);
}

TEST(ServeDeterminism, ResubmittingAnIdReplaysTheExactStream) {
  serve::SamplingServer server;
  serve::GammaRequest req;
  req.id = 12345;
  req.alpha = 0.72f;
  req.count = 100;
  const serve::GammaResult a = server.run(req);
  const serve::GammaResult b = server.run(req);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.attempts, b.attempts);
}

TEST(ServeDeterminism, MatchesOfflineSubstreamComputation) {
  serve::ServeConfig cfg;
  cfg.server_seed = 17;
  serve::SamplingServer server(cfg);

  serve::GammaRequest req;
  req.id = 9;
  req.alpha = 1.5f;
  req.scale = 2.0f;
  req.count = 500;
  const serve::GammaResult served = server.run(req);

  // The same computation with no server: derive the request's Philox
  // stream from the rng layer alone (a counter write, no
  // master-sequence replay) at the request's slot-0 index, and rerun.
  const rng::CounterSubstreams substreams(cfg.server_seed,
                                          cfg.substream_stride);
  rng::Philox px = substreams.stream(req.id * cfg.substreams_per_request);
  rng::GammaSampler sampler(rng::GammaConstants::make(req.alpha, req.scale),
                            req.transform);
  std::vector<float> expect(req.count);
  sampler.sample_block(px, expect.data(), expect.size());
  EXPECT_EQ(served.samples, expect);
  EXPECT_EQ(served.attempts, sampler.attempts());

  // The stream accessor the server advertises is that same stream.
  rng::Philox advertised = server.gamma_stream(req.id);
  rng::Philox derived = substreams.stream(req.id * cfg.substreams_per_request);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(advertised.next(), derived.next());
}

TEST(ServeDeterminism, CounterStreamSeekRecomputesAServedSuffix) {
  // The tentpole's serve payoff: because a request's tape is a Philox
  // counter range, any *suffix* of its uniform stream is reachable by
  // seek() without replaying the prefix. Reproduce the served samples'
  // uniform tape from an offset and check it matches the same stream
  // drawn sequentially.
  serve::SamplingServer server;

  rng::Philox full = server.gamma_stream(4242);
  std::vector<std::uint32_t> tape(1000);
  full.generate_block(tape.data(), tape.size());

  rng::Philox suffix = server.gamma_stream(4242);
  suffix.skip(900);  // O(1), no matter how far in
  for (std::size_t i = 900; i < 1000; ++i) {
    ASSERT_EQ(suffix.next(), tape[i]) << "position " << i;
  }
}

TEST(ServeDeterminism, ValuesComeFromPhiloxNotJumpAheadStreams) {
  // Served values come from the Philox family, not from the MT(521)
  // jump-ahead family at the same substream index: a reproduction on
  // the jump-ahead splitter cannot match by accident. The contract —
  // same (seed, request) gives the same bytes — is unchanged.
  serve::GammaRequest req;
  req.id = 7;
  req.alpha = 1.5f;
  req.count = 64;

  serve::ServeConfig cfg;
  serve::SamplingServer server(cfg);
  const serve::GammaResult a = server.run(req);
  EXPECT_EQ(a.samples, server.run(req).samples);

  const rng::SubstreamSplitter jump(rng::mt521_params(), cfg.server_seed,
                                    cfg.substream_stride);
  rng::MersenneTwister mt = jump.stream(req.id * cfg.substreams_per_request);
  rng::GammaSampler sampler(rng::GammaConstants::make(req.alpha, req.scale),
                            req.transform);
  std::vector<float> jump_samples(req.count);
  sampler.sample_block(mt, jump_samples.data(), jump_samples.size());
  EXPECT_NE(a.samples, jump_samples);
}

TEST(ServeDeterminism, DistinctIdsGetDisjointSubstreams) {
  serve::SamplingServer server;
  // Within one id's block, the gamma slot and the sector slots start
  // substream_stride apart in the master sequence; their first outputs
  // must differ (overlap would replicate them).
  rng::Philox gamma = server.gamma_stream(1);
  rng::Philox sector0 = server.sector_stream(1, 0);
  rng::Philox sector1 = server.sector_stream(1, 1);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t g = gamma.next();
    const std::uint32_t s0 = sector0.next();
    const std::uint32_t s1 = sector1.next();
    any_diff |= g != s0 && s0 != s1;
  }
  EXPECT_TRUE(any_diff);

  // Distinct ids get distinct gamma streams.
  rng::Philox a = server.gamma_stream(1);
  rng::Philox b = server.gamma_stream(2);
  any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= a.next() != b.next();
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------
// Pinned response bytes
// ---------------------------------------------------------------------

/// FNV-1a over the raw bytes of every response field, in set order.
class Fingerprint {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string fingerprint(const ServedResults& r,
                        const std::vector<RequestItem>& items) {
  Fingerprint fp;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].is_gamma) {
      const serve::GammaResult& g = r.gamma[i];
      fp.add(g.id);
      fp.add(g.attempts);
      fp.add(g.accepted);
      for (const float x : g.samples) fp.add(x);
    } else {
      const serve::CreditRiskResult& c = r.credit[i];
      fp.add(c.id);
      fp.add(c.scenarios);
      fp.add(c.mean);
      fp.add(c.variance);
      fp.add(c.var95);
      fp.add(c.var999);
      fp.add(c.es999);
    }
  }
  return fp.hex();
}

// Recorded, for one server and for a two-shard cluster alike, from
// servers that could still choose between jump-ahead and counter-based
// substreams, with counter-based streams selected. It pins the bytes
// of counter-based serving, which is the only stream family the server
// derives. Placement is invisible in the bytes, so both tests expect
// the same value.
constexpr const char* kPinnedBytes = "0x6b8297b055321e8e";

TEST(ServeFingerprint, SingleServerBytesArePinned) {
  const auto items = mixed_request_set();
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  serve::ServeConfig cfg;
  cfg.server_seed = 42;
  cfg.queue_capacity = items.size() + 1;
  serve::SamplingServer server(cfg);
  EXPECT_EQ(fingerprint(serve_set(server, items, order), items),
            kPinnedBytes);
}

TEST(ServeFingerprint, TwoShardClusterBytesArePinned) {
  const auto items = mixed_request_set();
  serve::ClusterConfig cfg;
  cfg.num_shards = 2;
  cfg.shard.server_seed = 42;
  cfg.shard.queue_capacity = items.size() + 1;
  serve::ShardedSamplingServer cluster(cfg);
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  EXPECT_EQ(fingerprint(serve_set(cluster, items, order), items),
            kPinnedBytes);
}

// ---------------------------------------------------------------------
// Backpressure and shutdown
// ---------------------------------------------------------------------

TEST(ServeBackpressure, FullQueueRejectsFastWithTypedStatus) {
  serve::ServerMetrics metrics;
  serve::SchedulerConfig cfg;
  cfg.queue_capacity = 3;
  cfg.max_batch = 1;  // the blocker must occupy the scheduler alone
  serve::BatchScheduler scheduler(cfg, &metrics);

  std::promise<void> started;
  std::promise<void> release;
  auto release_future = release.get_future().share();
  std::atomic<int> ran{0};

  serve::Job blocker;
  blocker.kind = serve::RequestKind::kGamma;
  blocker.run = [&, release_future] {
    started.set_value();
    release_future.wait();
    ran.fetch_add(1);
  };
  ASSERT_EQ(scheduler.try_enqueue(std::move(blocker)),
            serve::ServeStatus::kAdmitted);
  started.get_future().wait();  // scheduler is now stuck in the blocker

  // Fill the queue to capacity behind it.
  for (std::size_t i = 0; i < cfg.queue_capacity; ++i) {
    serve::Job job;
    job.run = [&] { ran.fetch_add(1); };
    ASSERT_EQ(scheduler.try_enqueue(std::move(job)),
              serve::ServeStatus::kAdmitted);
  }
  EXPECT_EQ(scheduler.queue_depth(), cfg.queue_capacity);

  // Overload: rejected fast, caller never blocked.
  serve::Job overflow;
  overflow.run = [&] { ran.fetch_add(1); };
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(scheduler.try_enqueue(std::move(overflow)),
            serve::ServeStatus::kQueueFull);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);

  // Nothing admitted is dropped: release and drain.
  release.set_value();
  scheduler.shutdown();
  EXPECT_EQ(ran.load(), 1 + static_cast<int>(cfg.queue_capacity));
  EXPECT_EQ(metrics.snapshot().admitted,
            1 + static_cast<std::uint64_t>(cfg.queue_capacity));
}

TEST(ServeBackpressure, ShutdownDrainsAdmittedWorkAndRejectsLate) {
  serve::ServeConfig cfg;
  cfg.queue_capacity = 64;
  serve::SamplingServer server(cfg);

  std::vector<std::future<serve::GammaResult>> futures;
  for (std::uint64_t i = 0; i < 16; ++i) {
    serve::GammaRequest req;
    req.id = i + 1;
    req.alpha = 1.0f;
    req.count = 64;
    futures.push_back(server.submit(req));
  }
  server.shutdown();

  // Every admitted future is fulfilled with a real result.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::GammaResult r = futures[i].get();
    EXPECT_EQ(r.id, i + 1);
    EXPECT_EQ(r.samples.size(), 64u);
  }
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.completed, futures.size());
  EXPECT_EQ(m.failed, 0u);

  // Late submission: typed rejection, no future.
  serve::GammaRequest late;
  late.id = 999;
  late.count = 8;
  std::future<serve::GammaResult> f;
  EXPECT_EQ(server.try_submit(late, &f),
            serve::ServeStatus::kShuttingDown);
  try {
    (void)server.submit(late);
    FAIL() << "submit after shutdown must throw";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.status(), serve::ServeStatus::kShuttingDown);
  }
  EXPECT_EQ(server.metrics().rejected_shutdown, 2u);
}

TEST(ServeBackpressure, InvalidRequestsRejectWithoutAdmission) {
  serve::SamplingServer server;
  std::future<serve::GammaResult> f;

  serve::GammaRequest zero_count;
  zero_count.id = 1;
  zero_count.count = 0;
  EXPECT_EQ(server.try_submit(zero_count, &f),
            serve::ServeStatus::kInvalidRequest);

  serve::GammaRequest bad_alpha;
  bad_alpha.id = 2;
  bad_alpha.alpha = -1.0f;
  bad_alpha.count = 10;
  EXPECT_EQ(server.try_submit(bad_alpha, &f),
            serve::ServeStatus::kInvalidRequest);

  serve::GammaRequest too_big;
  too_big.id = 3;
  too_big.count = server.config().max_gamma_count + 1;
  EXPECT_EQ(server.try_submit(too_big, &f),
            serve::ServeStatus::kInvalidRequest);

  std::future<serve::CreditRiskResult> cf;
  serve::CreditRiskRequest no_portfolio;
  no_portfolio.id = 4;
  no_portfolio.num_scenarios = 100;
  EXPECT_EQ(server.try_submit(no_portfolio, &cf),
            serve::ServeStatus::kInvalidRequest);

  serve::CreditRiskRequest one_scenario;
  one_scenario.id = 5;
  one_scenario.portfolio = test_portfolio();
  one_scenario.num_scenarios = 1;
  EXPECT_EQ(server.try_submit(one_scenario, &cf),
            serve::ServeStatus::kInvalidRequest);

  try {
    (void)server.submit(zero_count);
    FAIL() << "invalid request must throw";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.status(), serve::ServeStatus::kInvalidRequest);
  }

  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.admitted, 0u);
  EXPECT_EQ(m.rejected_invalid, 6u);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(ServeMetrics, NearestRankPercentiles) {
  std::vector<double> xs(100);
  std::iota(xs.begin(), xs.end(), 1.0);  // 1..100
  std::shuffle(xs.begin(), xs.end(), std::mt19937_64(3));
  const serve::LatencySummary s = serve::summarize_latencies(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(s.max_seconds, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_seconds, 50.5);
  EXPECT_DOUBLE_EQ(s.p50_seconds, 50.0);
  EXPECT_DOUBLE_EQ(s.p95_seconds, 95.0);
  EXPECT_DOUBLE_EQ(s.p99_seconds, 99.0);

  const serve::LatencySummary empty = serve::summarize_latencies({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99_seconds, 0.0);

  const serve::LatencySummary one = serve::summarize_latencies({2.5});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.p50_seconds, 2.5);
  EXPECT_DOUBLE_EQ(one.p99_seconds, 2.5);
}

TEST(ServeMetrics, CountersTrackTheRequestLifecycle) {
  const auto check = [](std::size_t max_batch) {
    SCOPED_TRACE(max_batch);
    serve::ServeConfig cfg;
    cfg.max_batch = max_batch;
    serve::SamplingServer server(cfg);
    // All ten are admitted before any is waited for, so the scheduler
    // may coalesce them up to max_batch.
    std::vector<std::future<serve::GammaResult>> futures;
    for (std::uint64_t i = 0; i < 10; ++i) {
      serve::GammaRequest req;
      req.id = i + 1;
      req.count = 32;
      futures.push_back(server.submit(req));
    }
    for (auto& f : futures) (void)f.get();
    const serve::MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.submitted, 10u);
    EXPECT_EQ(m.admitted, 10u);
    EXPECT_EQ(m.completed, 10u);
    EXPECT_EQ(m.failed, 0u);
    EXPECT_EQ(m.cache_hits, 0u);
    EXPECT_GE(m.batches, 1u);
    EXPECT_LE(m.max_batch_occupancy, cfg.max_batch);
    if (max_batch == 1) {
      EXPECT_EQ(m.batches, 10u);
      EXPECT_EQ(m.max_batch_occupancy, 1u);
    }
    EXPECT_EQ(m.latency.count, 10u);
    EXPECT_GE(m.latency.p99_seconds, m.latency.p50_seconds);
  };
  check(4);
  check(1);
}

// ---------------------------------------------------------------------
// Ring buffers under serve workload shapes
// ---------------------------------------------------------------------

/// Job-shaped payload: a closure plus shared ownership, like the
/// scheduler's admission entries.
struct FakeJob {
  std::shared_ptr<int> payload;
  std::function<void()> run;
};

TEST(ServeRingBuffer, FullQueueRejectionAndRecovery) {
  RingBuffer<FakeJob> q(2);
  EXPECT_TRUE(q.try_push(FakeJob{std::make_shared<int>(1), [] {}}));
  EXPECT_TRUE(q.try_push(FakeJob{std::make_shared<int>(2), [] {}}));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(FakeJob{std::make_shared<int>(3), [] {}}));
  EXPECT_EQ(*q.pop().payload, 1);  // FIFO preserved across rejection
  EXPECT_TRUE(q.try_push(FakeJob{std::make_shared<int>(4), [] {}}));
  EXPECT_EQ(*q.pop().payload, 2);
  EXPECT_EQ(*q.pop().payload, 4);
  EXPECT_TRUE(q.empty());
}

TEST(ServeRingBuffer, WraparoundAtCapacityBoundary) {
  // Admission-queue shape: repeated partial fill/drain marching the
  // head and tail across the capacity boundary many times.
  RingBuffer<FakeJob> q(3);
  int next = 0, expect = 0;
  for (int round = 0; round < 100; ++round) {
    while (!q.full()) {
      q.push(FakeJob{std::make_shared<int>(next++), [] {}});
    }
    const std::size_t drain = 1 + static_cast<std::size_t>(round % 3);
    for (std::size_t d = 0; d < drain && !q.empty(); ++d) {
      ASSERT_EQ(*q.pop().payload, expect++);
    }
  }
  while (!q.empty()) ASSERT_EQ(*q.pop().payload, expect++);
  EXPECT_EQ(next, expect);
}

TEST(ServeRingBuffer, DestructionReleasesEnqueuedItems) {
  std::weak_ptr<int> leaked_a, leaked_b;
  {
    RingBuffer<FakeJob> q(4);
    auto a = std::make_shared<int>(1);
    auto b = std::make_shared<int>(2);
    leaked_a = a;
    leaked_b = b;
    q.push(FakeJob{std::move(a), [] {}});
    q.push(FakeJob{std::move(b), [] {}});
    (void)q.pop();  // one consumed, one still enqueued at destruction
  }
  EXPECT_TRUE(leaked_a.expired());
  EXPECT_TRUE(leaked_b.expired());
}

// ---------------------------------------------------------------------
// Latency reservoir (bounded-memory metrics)
// ---------------------------------------------------------------------

TEST(ServeMetrics, ReservoirIsExactBelowCapacity) {
  serve::LatencyReservoir r(128);
  for (int i = 1; i <= 100; ++i) r.record(static_cast<double>(i));
  EXPECT_EQ(r.count(), 100u);
  EXPECT_EQ(r.stored(), 100u);
  const serve::LatencySummary s = r.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(s.max_seconds, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_seconds, 50.5);
  EXPECT_DOUBLE_EQ(s.p50_seconds, 50.0);  // matches the exact recorder
}

TEST(ServeMetrics, ReservoirBoundsStorageAndKeepsExactAggregates) {
  constexpr std::size_t kCap = 64;
  serve::LatencyReservoir r(kCap);
  constexpr int kN = 10'000;
  for (int i = 1; i <= kN; ++i) r.record(static_cast<double>(i));
  EXPECT_EQ(r.count(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(r.stored(), kCap);  // the regression: storage stays bounded
  const serve::LatencySummary s = r.summarize();
  EXPECT_EQ(s.count, static_cast<std::size_t>(kN));
  EXPECT_DOUBLE_EQ(s.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(s.max_seconds, static_cast<double>(kN));
  EXPECT_DOUBLE_EQ(s.mean_seconds, (1.0 + kN) / 2.0);
  // Percentile estimates from a uniform 1..N stream land near their
  // exact ranks (loose band: 64 samples).
  EXPECT_NEAR(s.p50_seconds / (0.50 * kN), 1.0, 0.35);
  EXPECT_GE(s.p99_seconds, s.p50_seconds);
}

TEST(ServeMetrics, ReservoirIsDeterministic) {
  serve::LatencyReservoir a(32), b(32);
  for (int i = 0; i < 5'000; ++i) {
    const double v =
        static_cast<double>((static_cast<unsigned>(i) * 2654435761u) % 1000);
    a.record(v);
    b.record(v);
  }
  const serve::LatencySummary sa = a.summarize();
  const serve::LatencySummary sb = b.summarize();
  EXPECT_DOUBLE_EQ(sa.p50_seconds, sb.p50_seconds);
  EXPECT_DOUBLE_EQ(sa.p95_seconds, sb.p95_seconds);
  EXPECT_DOUBLE_EQ(sa.p99_seconds, sb.p99_seconds);
}

TEST(ServeMetrics, RecorderStorageStaysBoundedUnderLoad) {
  // Regression for the unbounded-latency-vector bug: the recorder's
  // stored sample count can never exceed the reservoir capacity while
  // the completion count keeps growing, and snapshot() keeps working.
  serve::ServerMetrics metrics;
  const std::size_t n = serve::LatencyReservoir::kDefaultCapacity + 5'000;
  for (std::size_t i = 0; i < n; ++i) {
    metrics.record_completed(1e-6 * static_cast<double>(i + 1),
                             serve::RequestKind::kGamma);
  }
  EXPECT_EQ(metrics.latency_samples_stored(),
            serve::LatencyReservoir::kDefaultCapacity);
  const serve::MetricsSnapshot m = metrics.snapshot();
  EXPECT_EQ(m.completed, n);
  EXPECT_EQ(m.latency.count, n);  // exact even though storage is bounded
  EXPECT_DOUBLE_EQ(m.latency.min_seconds, 1e-6);
  EXPECT_DOUBLE_EQ(m.latency.max_seconds, 1e-6 * static_cast<double>(n));
  EXPECT_GT(m.latency.p99_seconds, 0.0);
}

// ---------------------------------------------------------------------
// Admission bounds: explicit constants, typed errors for zero
// ---------------------------------------------------------------------

TEST(ServeCapacity, ExplicitConstantsAreKept) {
  serve::ServeConfig cfg;
  cfg.queue_capacity = 77;
  cfg.max_batch = 9;
  serve::SamplingServer server(cfg);
  EXPECT_EQ(server.config().queue_capacity, 77u);
  EXPECT_EQ(server.config().max_batch, 9u);
}

TEST(ServeCapacity, ZeroBoundsThrowTypedErrors) {
  // A zero bound is a configuration error, never silently raised to 1:
  // the scheduler refuses it before any thread starts.
  serve::ServeConfig no_queue;
  no_queue.queue_capacity = 0;
  try {
    serve::SamplingServer server(no_queue);
    FAIL() << "queue_capacity = 0 was accepted";
  } catch (const dwi::Error& e) {
    EXPECT_NE(std::string(e.what()).find("queue capacity"), std::string::npos)
        << e.what();
  }
  serve::ServeConfig no_batch;
  no_batch.max_batch = 0;
  try {
    serve::SamplingServer server(no_batch);
    FAIL() << "max_batch = 0 was accepted";
  } catch (const dwi::Error& e) {
    EXPECT_NE(std::string(e.what()).find("max_batch"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Divergent-kernel zoo request kinds (src/workloads via serve)
// ---------------------------------------------------------------------

TEST(ServeKinds, RequestKindNamesRoundTrip) {
  for (std::size_t i = 0; i < serve::kNumRequestKinds; ++i) {
    const auto kind = static_cast<serve::RequestKind>(i);
    const auto parsed = serve::parse_request_kind(serve::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << serve::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(serve::parse_request_kind("poisson").has_value());
  EXPECT_FALSE(serve::parse_request_kind("").has_value());
  EXPECT_FALSE(serve::parse_request_kind("unknown").has_value());
}

TEST(ServeZoo, HistogramResponseIsReproducibleOffline) {
  serve::ServeConfig cfg;
  cfg.server_seed = 2024;
  serve::SamplingServer server(cfg);

  serve::HistogramRequest req;
  req.id = 9;
  req.num_updates = 3000;
  req.num_bins = 128;
  req.hot_fraction = 0.4f;
  const serve::HistogramResult res = server.run(req);

  // Offline: replay the request's slot-0 substream through the same
  // trace generator and kernel — no server required.
  rng::Philox px = server.gamma_stream(req.id);
  const workloads::HistogramTrace trace = workloads::make_histogram_trace(
      req.num_updates, req.num_bins, req.hot_fraction,
      [&px] { return px.next(); });
  workloads::HistogramConfig kcfg;
  kcfg.num_bins = req.num_bins;
  kcfg.mode = req.mode;
  const workloads::HistogramOutput offline =
      workloads::run_histogram(kcfg, trace.addrs, trace.weights);

  ASSERT_EQ(res.bins, offline.bins);
  EXPECT_EQ(res.stats.cycles, offline.stats.cycles);
  EXPECT_EQ(res.stats.forwarded, offline.stats.forwarded);
}

TEST(ServeZoo, ResponsesAreIdenticalAcrossServersAndBatching) {
  serve::ServeConfig base;
  base.server_seed = 404;
  serve::ServeConfig unbatched = base;
  unbatched.max_batch = 1;
  serve::SamplingServer a(base), b(unbatched);

  serve::HistogramRequest hreq;
  hreq.id = 1;
  hreq.num_updates = 1000;
  hreq.hot_fraction = 0.25f;
  serve::SpmvRequest sreq;
  sreq.id = 2;
  sreq.rows = 200;
  sreq.nnz_per_row_max = 6;
  serve::MatchingRequest mreq;
  mreq.id = 3;
  mreq.num_vertices = 300;
  mreq.num_edges = 900;
  mreq.target_pairs = 40;

  EXPECT_EQ(a.run(hreq).bins, b.run(hreq).bins);
  EXPECT_EQ(a.run(sreq).y, b.run(sreq).y);
  const serve::MatchingResult ma = a.run(mreq), mb = b.run(mreq);
  EXPECT_EQ(ma.match, mb.match);
  EXPECT_EQ(ma.pairs, mb.pairs);
  EXPECT_EQ(ma.stats.cycles, mb.stats.cycles);
}

TEST(ServeZoo, SchedulingModeMovesCyclesNeverPayloadBytes) {
  serve::SamplingServer server{serve::ServeConfig{}};
  serve::HistogramRequest req;
  req.id = 5;
  req.num_updates = 2000;
  req.hot_fraction = 0.8f;  // heavy collisions
  req.mode = workloads::SchedulingMode::kStatic;
  const serve::HistogramResult st = server.run(req);
  req.mode = workloads::SchedulingMode::kDynamic;
  const serve::HistogramResult dyn = server.run(req);
  EXPECT_EQ(st.bins, dyn.bins);  // same payload bytes
  EXPECT_LT(dyn.stats.cycles, st.stats.cycles);  // different schedule
  EXPECT_GT(dyn.stats.forwarded, 0u);
}

TEST(ServeZoo, SpmvResponseIsReproducibleOffline) {
  serve::ServeConfig cfg;
  serve::SamplingServer a(cfg), b(cfg);
  serve::SpmvRequest req;
  req.id = 12;
  req.rows = 128;
  req.nnz_per_row_max = 10;
  const serve::SpmvResult ra = a.run(req), rb = b.run(req);
  EXPECT_EQ(ra.y, rb.y);
  EXPECT_EQ(ra.nnz, rb.nnz);

  // Offline reproduction over the Philox slot.
  rng::Philox px = a.gamma_stream(req.id);
  const auto next = [&px] { return px.next(); };
  const workloads::CsrMatrix m = workloads::make_spmv_matrix(
      req.rows, req.rows, req.nnz_per_row_min, req.nnz_per_row_max, next);
  const std::vector<float> x = workloads::make_dense_vector(req.rows, next);
  workloads::SpmvConfig kcfg;
  kcfg.mode = req.mode;
  EXPECT_EQ(ra.y, workloads::run_spmv(kcfg, m, x).y);
}

TEST(ServeZoo, ValidationRejectsOutOfRangeRequests) {
  serve::SamplingServer server{serve::ServeConfig{}};
  {
    serve::HistogramRequest req;  // num_updates == 0
    std::future<serve::HistogramResult> f;
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
    req.num_updates = 100;
    req.hot_fraction = 1.5f;  // out of [0, 1]
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
  }
  {
    serve::SpmvRequest req;
    req.rows = 100;
    req.nnz_per_row_min = 9;
    req.nnz_per_row_max = 3;  // min > max
    std::future<serve::SpmvResult> f;
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
    req.nnz_per_row_min = 0;
    req.nnz_per_row_max = server.config().max_spmv_nnz_per_row + 1;
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
  }
  {
    serve::MatchingRequest req;
    req.num_vertices = 1;  // below the 2-vertex minimum
    req.num_edges = 4;
    std::future<serve::MatchingResult> f;
    EXPECT_EQ(server.try_submit(req, &f),
              serve::ServeStatus::kInvalidRequest);
  }
  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.rejected_invalid, 5u);
  EXPECT_EQ(m.completed, 0u);
}

// ---------------------------------------------------------------------
// Validation at the substream-index edges
// ---------------------------------------------------------------------

/// Submit `req` and, when admitted, wait for the response so the
/// request's substreams are actually derived and drawn from.
template <typename Request>
serve::ServeStatus submit_and_drain(serve::SamplingServer& server,
                                    const Request& req) {
  std::future<decltype(server.run(req))> f;
  const serve::ServeStatus st = server.try_submit(req, &f);
  if (st == serve::ServeStatus::kAdmitted) (void)f.get();
  return st;
}

TEST(ServeValidation, IdWrapBoundaryForEveryKind) {
  // Request id r owns substream indices [r·spr, (r+1)·spr). The last
  // admitted id is UINT64_MAX / spr - 1; one more is refused as
  // invalid, for every request kind.
  serve::SamplingServer server;
  const std::uint64_t spr = server.config().substreams_per_request;
  const serve::RequestId last = ~std::uint64_t{0} / spr - 1;

  serve::GammaRequest gamma;
  gamma.count = 16;
  serve::CreditRiskRequest credit;
  credit.portfolio = test_portfolio();
  credit.num_scenarios = 8;
  serve::HistogramRequest histogram;
  histogram.num_updates = 64;
  histogram.num_bins = 16;
  serve::SpmvRequest spmv;
  spmv.rows = 8;
  serve::MatchingRequest matching;
  matching.num_vertices = 8;
  matching.num_edges = 16;

  const auto check = [&](auto req, const char* kind) {
    SCOPED_TRACE(kind);
    req.id = last;
    EXPECT_EQ(submit_and_drain(server, req), serve::ServeStatus::kAdmitted);
    req.id = last + 1;
    EXPECT_EQ(submit_and_drain(server, req),
              serve::ServeStatus::kInvalidRequest);
  };
  check(gamma, "gamma");
  check(credit, "creditrisk");
  check(histogram, "histogram");
  check(spmv, "spmv");
  check(matching, "matching");

  const serve::MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.admitted, 5u);
  EXPECT_EQ(m.completed, 5u);
  EXPECT_EQ(m.rejected_invalid, 5u);
}

TEST(ServeValidation, SectorCountBoundary) {
  // Slot 0 is the gamma slot, so a book may have at most spr - 1
  // sectors, each on its own slot.
  serve::SamplingServer server;
  const std::size_t spr = server.config().substreams_per_request;
  const auto book = [](std::size_t sectors) {
    std::vector<finance::Sector> list;
    for (std::size_t k = 0; k < sectors; ++k) {
      list.push_back({0.5 + 0.1 * static_cast<double>(k), "sector"});
    }
    return std::make_shared<const finance::Portfolio>(
        finance::Portfolio::synthetic(32, std::move(list), 11u));
  };
  serve::CreditRiskRequest req;
  req.id = 5;
  req.num_scenarios = 8;
  req.portfolio = book(spr - 1);
  EXPECT_EQ(submit_and_drain(server, req), serve::ServeStatus::kAdmitted);
  req.portfolio = book(spr);
  EXPECT_EQ(submit_and_drain(server, req),
            serve::ServeStatus::kInvalidRequest);
}

TEST(ServeZoo, PerKindCountersTrackSubmissionsAndCompletions) {
  serve::SamplingServer server{serve::ServeConfig{}};
  serve::GammaRequest g;
  g.id = 1;
  g.count = 32;
  serve::HistogramRequest h;
  h.id = 2;
  h.num_updates = 64;
  serve::MatchingRequest match;
  match.id = 3;
  match.num_vertices = 16;
  match.num_edges = 20;
  (void)server.run(g);
  (void)server.run(h);
  (void)server.run(h);
  (void)server.run(match);
  const serve::MetricsSnapshot m = server.metrics();
  const auto at = [&](serve::RequestKind k) {
    return static_cast<std::size_t>(k);
  };
  EXPECT_EQ(m.submitted_by_kind[at(serve::RequestKind::kGamma)], 1u);
  EXPECT_EQ(m.submitted_by_kind[at(serve::RequestKind::kHistogram)], 2u);
  EXPECT_EQ(m.submitted_by_kind[at(serve::RequestKind::kSpmv)], 0u);
  EXPECT_EQ(m.submitted_by_kind[at(serve::RequestKind::kMatching)], 1u);
  EXPECT_EQ(m.completed_by_kind[at(serve::RequestKind::kGamma)], 1u);
  EXPECT_EQ(m.completed_by_kind[at(serve::RequestKind::kHistogram)], 2u);
  EXPECT_EQ(m.completed_by_kind[at(serve::RequestKind::kMatching)], 1u);
  EXPECT_EQ(m.completed, 4u);
}

// ---------------------------------------------------------------------
// Generic entry point, typed over every request kind (RequestTraits)
// ---------------------------------------------------------------------

/// A valid request of each kind with id `id`, and an invalid one.
template <typename Req>
struct KindCase;

template <>
struct KindCase<serve::GammaRequest> {
  static serve::GammaRequest valid(serve::RequestId id) {
    return {id, 1.39f, 1.0f, 129, rng::NormalTransform::kMarsagliaBray};
  }
  static serve::GammaRequest invalid() {
    serve::GammaRequest req = valid(1);
    req.count = 0;
    return req;
  }
};

template <>
struct KindCase<serve::CreditRiskRequest> {
  static serve::CreditRiskRequest valid(serve::RequestId id) {
    return {id, test_portfolio(), 48};
  }
  static serve::CreditRiskRequest invalid() {
    return {1, nullptr, 48};  // no portfolio
  }
};

template <>
struct KindCase<serve::HistogramRequest> {
  static serve::HistogramRequest valid(serve::RequestId id) {
    return {id, 600, 64, 0.3f, workloads::SchedulingMode::kDynamic};
  }
  static serve::HistogramRequest invalid() {
    serve::HistogramRequest req = valid(1);
    req.hot_fraction = 1.5f;
    return req;
  }
};

template <>
struct KindCase<serve::SpmvRequest> {
  static serve::SpmvRequest valid(serve::RequestId id) {
    return {id, 96, 0, 5, workloads::SchedulingMode::kDynamic};
  }
  static serve::SpmvRequest invalid() {
    serve::SpmvRequest req = valid(1);
    req.nnz_per_row_min = 6;  // above the max
    return req;
  }
};

template <>
struct KindCase<serve::MatchingRequest> {
  static serve::MatchingRequest valid(serve::RequestId id) {
    return {id, 120, 300, 20, workloads::SchedulingMode::kDynamic};
  }
  static serve::MatchingRequest invalid() {
    serve::MatchingRequest req = valid(1);
    req.num_vertices = 1;
    return req;
  }
};

/// Raw bytes of every response field, for byte-for-byte comparison.
class ResultBytes {
 public:
  template <typename T>
  ResultBytes& add(const T& v) {
    const auto* p = reinterpret_cast<const char*>(&v);
    bytes_.append(p, sizeof(T));
    return *this;
  }
  template <typename T>
  ResultBytes& add(const std::vector<T>& v) {
    for (const T& x : v) add(x);
    return *this;
  }
  ResultBytes& add(const serve::WorkloadStatsResult& s) {
    return add(s.cycles)
        .add(s.initiations)
        .add(s.hazard_stall_cycles)
        .add(s.forwarded)
        .add(s.skipped);
  }
  const std::string& str() const { return bytes_; }

 private:
  std::string bytes_;
};

std::string bytes_of(const serve::GammaResult& r) {
  return ResultBytes().add(r.id).add(r.samples).add(r.attempts).add(
      r.accepted).str();
}
std::string bytes_of(const serve::CreditRiskResult& r) {
  return ResultBytes()
      .add(r.id)
      .add(r.scenarios)
      .add(r.mean)
      .add(r.variance)
      .add(r.var95)
      .add(r.var999)
      .add(r.es999)
      .str();
}
std::string bytes_of(const serve::HistogramResult& r) {
  return ResultBytes().add(r.id).add(r.bins).add(r.updates).add(r.stats).str();
}
std::string bytes_of(const serve::SpmvResult& r) {
  return ResultBytes().add(r.id).add(r.y).add(r.nnz).add(r.stats).str();
}
std::string bytes_of(const serve::MatchingResult& r) {
  return ResultBytes()
      .add(r.id)
      .add(r.match)
      .add(r.pairs)
      .add(r.edges_examined)
      .add(r.stats)
      .str();
}

template <typename Req>
class ServeRequestKinds : public ::testing::Test {};

using AllRequestKinds =
    ::testing::Types<serve::GammaRequest, serve::CreditRiskRequest,
                     serve::HistogramRequest, serve::SpmvRequest,
                     serve::MatchingRequest>;

TYPED_TEST_SUITE(ServeRequestKinds, AllRequestKinds);

TYPED_TEST(ServeRequestKinds, ServerAndTwoShardClusterReturnTheSameBytes) {
  using Case = KindCase<TypeParam>;
  serve::ServeConfig cfg;
  cfg.server_seed = 42;
  serve::SamplingServer server(cfg);
  serve::ClusterConfig ccfg;
  ccfg.num_shards = 2;
  ccfg.shard = cfg;
  serve::ShardedSamplingServer cluster(ccfg);
  for (const serve::RequestId id : {1000u, 1017u, 1034u, 1051u}) {
    const TypeParam req = Case::valid(id);
    EXPECT_EQ(bytes_of(server.run(req)), bytes_of(cluster.run(req)))
        << "id " << id;
  }
}

TYPED_TEST(ServeRequestKinds, RepeatedRequestIsRecomputedAndChargedAgain) {
  // Nothing is remembered between requests: a repeat is admitted,
  // recomputed to the same bytes and charged to its shard's modeled
  // device a second time.
  serve::ClusterConfig cfg;
  cfg.num_shards = 2;
  serve::ShardedSamplingServer cluster(cfg);
  const TypeParam req = KindCase<TypeParam>::valid(99);

  const auto launches = [&] {
    std::uint64_t total = 0;
    for (const auto& shard : cluster.metrics().shards) {
      total += shard.modeled_launches;
    }
    return total;
  };
  const std::string first = bytes_of(cluster.run(req));
  EXPECT_EQ(launches(), 1u);

  EXPECT_EQ(bytes_of(cluster.run(req)), first);
  EXPECT_EQ(launches(), 2u);
  const serve::ClusterSnapshot snap = cluster.metrics();
  EXPECT_EQ(snap.submitted, 2u);
  EXPECT_EQ(snap.admitted, 2u);
  std::uint64_t hits = 0;
  std::uint64_t completed = 0;
  for (const auto& shard : snap.shards) {
    hits += shard.metrics.cache_hits;
    completed += shard.metrics.completed;
  }
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(completed, 2u);
}

TYPED_TEST(ServeRequestKinds, SubmitOfAnInvalidRequestThrowsRejectedError) {
  const TypeParam bad = KindCase<TypeParam>::invalid();
  const auto expect_invalid = [&](auto& server) {
    try {
      (void)server.submit(bad);
      FAIL() << "invalid request was admitted";
    } catch (const serve::RejectedError& e) {
      EXPECT_EQ(e.status(), serve::ServeStatus::kInvalidRequest);
    }
  };
  serve::SamplingServer server;
  expect_invalid(server);
  EXPECT_EQ(server.metrics().rejected_invalid, 1u);
  serve::ShardedSamplingServer cluster{serve::ClusterConfig{}};
  expect_invalid(cluster);
  EXPECT_EQ(cluster.metrics().rejected_invalid, 1u);
}

}  // namespace
}  // namespace dwi
