// serve_small and serve_heavy: load on the sampling service.
//
// serve_small — one SamplingServer, small mixed requests: gamma x 256
//   with mixed alpha and transform, plus small histogram / SpMV /
//   matching requests. Fixed per-request costs dominate: validation,
//   substream derivation, queueing, dispatch, future fulfilment. A
//   closed loop of `threads` clients measures capacity; then one pacer
//   thread offers a fixed rate (open loop) and each request is timed
//   from its due time.
// serve_heavy — a two-shard ShardedSamplingServer with default routing,
//   closed loop of `threads` clients, compute-bound requests (CreditRisk+
//   on an 8-sector book, gamma x 64k, zoo requests at the sizes of
//   bench/workload_zoo). Per-request overhead is a few percent here.
//
// Only the knobs a user must set are set: seed, sizes, shard count and
// thread count. Every other ServeConfig / ClusterConfig field keeps its
// default, so changing a default shows up as a moved metric.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "bench.h"
#include "exec/thread_pool.h"
#include "finance/portfolio.h"
#include "rng/jump.h"
#include "rng/philox.h"
#include "serve/cluster.h"
#include "serve/sampling_server.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace dwi;
using serve::ServeStatus;

using Request = std::variant<serve::GammaRequest, serve::CreditRiskRequest,
                             serve::HistogramRequest, serve::SpmvRequest,
                             serve::MatchingRequest>;
using AnyFuture =
    std::variant<std::future<serve::GammaResult>,
                 std::future<serve::CreditRiskResult>,
                 std::future<serve::HistogramResult>,
                 std::future<serve::SpmvResult>,
                 std::future<serve::MatchingResult>>;

template <typename Req> struct ResultOf;
template <> struct ResultOf<serve::GammaRequest> {
  using type = serve::GammaResult;
};
template <> struct ResultOf<serve::CreditRiskRequest> {
  using type = serve::CreditRiskResult;
};
template <> struct ResultOf<serve::HistogramRequest> {
  using type = serve::HistogramResult;
};
template <> struct ResultOf<serve::SpmvRequest> {
  using type = serve::SpmvResult;
};
template <> struct ResultOf<serve::MatchingRequest> {
  using type = serve::MatchingResult;
};

constexpr int kSetups = 7;
/// bench/serve_throughput's gamma shapes: the paper's CreditRisk+
/// regime plus heavier tails.
constexpr float kAlphas[4] = {0.72f, 1.5f, 2.47f, 5.0f};

/// Open-loop offered rate for serve_small. It is a constant so that a
/// faster server is measured at the same load. The closed-loop capacity
/// at the commit that introduced this benchmark ranged from about 9k to
/// 15k req/s with the host's speed, so the rate stays under half of the
/// slowest capacity seen: near capacity, a slow spell on a shared host
/// backs the queue up and the open-loop latencies stop repeating.
constexpr double kSmallRate = 4000.0;
/// serve_small's latency limit (from the request's due time).
constexpr double kSmallSloSeconds = 0.001;

/// Request id of the i-th request of a run: an odd-multiplier bijection
/// on 20 bits under a fixed high bit, so ids are unique for 2^20
/// requests and jump-ahead derivation (which costs popcount(id) matrix
/// applies) sees the same id weight however many requests a run makes.
serve::RequestId request_id(std::uint64_t i) {
  return (std::uint64_t{1} << 24) | ((i * 0x9E3779B1ull) & 0xFFFFFull);
}

/// Request mix of the workload; request i is a pure function of
/// (seed, i). Kinds repeat in a fixed cycle of eight, so every run and
/// every seed offers exactly the same proportions; the seed picks each
/// request's shape, transform and collision fraction.
///
/// serve_small keeps bench/serve_throughput's cycle (seven gamma
/// requests, then one other job); the eighth slot rotates through the
/// zoo kinds at the sizes bench/workload_zoo serves. serve_heavy's
/// cycle is chosen: three gamma x 64k, two CreditRisk+ x 2000 and one
/// of each zoo kind at workload_zoo's default bench sizes.
struct Mix {
  bool heavy = false;
  std::uint64_t seed = 1;
  std::shared_ptr<const finance::Portfolio> book;

  Request operator()(std::uint64_t i) const {
    const std::uint64_t r = mix64(seed * 0x100000001b3ull + i);
    const serve::RequestId id = request_id(i);
    const unsigned slot = static_cast<unsigned>(i % 8);
    const float alpha = kAlphas[r % 4];
    const auto transform = (r >> 8) % 2 == 0
                               ? rng::NormalTransform::kMarsagliaBray
                               : rng::NormalTransform::kIcdfBitwise;
    // workload_zoo's hot-bin fractions: 0, 0.25, 0.5, 0.75.
    const float hot = 0.25f * static_cast<float>((r >> 16) % 4);
    if (!heavy) {
      if (slot < 7) {
        return serve::GammaRequest{id, alpha, 1.0f, 256, transform};
      }
      switch ((i / 8) % 3) {
        case 0:
          return serve::HistogramRequest{id, 2048, 128, hot};
        case 1:
          return serve::SpmvRequest{
              id, 256, 0, 2 + static_cast<std::uint32_t>((r >> 24) % 8)};
        default:
          return serve::MatchingRequest{id, 512, 1024, 0};
      }
    }
    switch (slot) {
      case 0:
      case 1:
      case 2:
        return serve::GammaRequest{id, alpha, 1.0f, 1u << 16, transform};
      case 3:
      case 4:
        return serve::CreditRiskRequest{id, book, 2000};
      case 5:
        return serve::HistogramRequest{id, 1u << 14, 256, hot};
      case 6:
        return serve::SpmvRequest{id, 2048, 0, 8};
      default:
        return serve::MatchingRequest{id, 4096, 1u << 14, 0};
    }
  }
};

constexpr const char* kKindNames[] = {"gamma", "creditrisk", "histogram",
                                      "spmv", "matching"};
static_assert(std::size(kKindNames) == std::variant_size_v<Request>);

/// serve_heavy's CreditRisk+ book, the same for every run seed so that
/// its aggregation cost does not vary by seed.
finance::Portfolio eight_sector_book() {
  return finance::Portfolio::synthetic(48,
                                       {{1.39, "representative"},
                                        {0.8, "stable"},
                                        {1.1, "cyclical"},
                                        {1.6, "volatile"},
                                        {0.5, "utilities"},
                                        {2.0, "emerging"},
                                        {1.39, "financials"},
                                        {0.9, "industrial"}},
                                       /*seed=*/1);
}

// --- result checks --------------------------------------------------------

/// Output checks that hold for any correct server: sizes match the
/// request, values are finite (and positive where the distribution
/// is), CreditRisk+ quantiles are ordered, and pooled gamma means sit
/// within kMeanSe standard errors of alpha. Response bytes are not
/// pinned: they depend on the substream family, which may change.
struct Checker {
  static constexpr double kMeanSe = 6.0;
  std::map<float, std::pair<double, std::uint64_t>> gamma_sums;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    if (failures.size() < 8) failures.push_back(what);
  }

  void operator()(const serve::GammaRequest& q, const serve::GammaResult& r) {
    bool ok = r.id == q.id && r.samples.size() == q.count &&
              r.accepted == q.count && r.attempts >= r.accepted;
    double sum = 0.0;
    for (const float v : r.samples) {
      ok &= std::isfinite(v) && v > 0.0f;
      sum += v;
    }
    if (!ok) fail("gamma response malformed");
    auto& s = gamma_sums[q.alpha];
    s.first += sum;
    s.second += r.samples.size();
  }
  void operator()(const serve::CreditRiskRequest& q,
                  const serve::CreditRiskResult& r) {
    const bool ok = r.id == q.id && r.scenarios == q.num_scenarios &&
                    std::isfinite(r.mean) && r.mean >= 0.0 &&
                    std::isfinite(r.es999) && r.var95 <= r.var999 &&
                    at_most(r.var999, r.es999);
    if (!ok) fail("CreditRisk+ response violates var95 <= var999 <= es999");
  }
  void operator()(const serve::HistogramRequest& q,
                  const serve::HistogramResult& r) {
    bool ok = r.id == q.id && r.bins.size() == q.num_bins &&
              r.updates == q.num_updates;
    for (const float b : r.bins) ok &= std::isfinite(b) && b >= 0.0f;
    if (!ok) fail("histogram response malformed");
  }
  void operator()(const serve::SpmvRequest& q, const serve::SpmvResult& r) {
    bool ok = r.id == q.id && r.y.size() == q.rows &&
              r.nnz >= std::uint64_t{q.rows} * q.nnz_per_row_min &&
              r.nnz <= std::uint64_t{q.rows} * q.nnz_per_row_max;
    for (const float v : r.y) ok &= std::isfinite(v);
    if (!ok) fail("SpMV response malformed");
  }
  void operator()(const serve::MatchingRequest& q,
                  const serve::MatchingResult& r) {
    bool ok = r.id == q.id && r.match.size() == q.num_vertices &&
              r.pairs <= q.num_vertices / 2;
    std::uint64_t matched = 0;
    for (std::size_t v = 0; v < r.match.size() && ok; ++v) {
      const std::int32_t m = r.match[v];
      if (m < 0) continue;
      ++matched;
      ok = static_cast<std::size_t>(m) < r.match.size() &&
           r.match[static_cast<std::size_t>(m)] == static_cast<std::int32_t>(v);
    }
    if (!ok || matched != 2ull * r.pairs) fail("matching is not symmetric");
  }

  void merge(const Checker& o) {
    for (const auto& [a, s] : o.gamma_sums) {
      gamma_sums[a].first += s.first;
      gamma_sums[a].second += s.second;
    }
    for (const auto& f : o.failures) fail(f);
  }

  /// Gamma(alpha, 1): mean alpha, variance alpha.
  void check_means() {
    for (const auto& [alpha, s] : gamma_sums) {
      const double n = static_cast<double>(s.second);
      const double se = std::sqrt(static_cast<double>(alpha) / n);
      if (std::abs(s.first / n - alpha) > kMeanSe * se) {
        fail("pooled gamma mean off for alpha " + std::to_string(alpha));
      }
    }
  }
};

// --- response bytes (for the re-serve identity check) ----------------------

template <typename T>
void put(std::string& b, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  b.append(reinterpret_cast<const char*>(&v), sizeof v);
}
template <typename T>
void put(std::string& b, const std::vector<T>& v) {
  put(b, v.size());
  b.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}
void put(std::string& b, const serve::WorkloadStatsResult& s) {
  put(b, s.cycles);
  put(b, s.initiations);
  put(b, s.hazard_stall_cycles);
  put(b, s.forwarded);
  put(b, s.skipped);
}

std::string bytes_of(const serve::GammaResult& r) {
  std::string b;
  put(b, r.id);
  put(b, r.samples);
  put(b, r.attempts);
  put(b, r.accepted);
  return b;
}
std::string bytes_of(const serve::CreditRiskResult& r) {
  std::string b;
  put(b, r.id);
  put(b, r.scenarios);
  for (const double v : {r.mean, r.variance, r.var95, r.var999, r.es999}) {
    put(b, v);
  }
  return b;
}
std::string bytes_of(const serve::HistogramResult& r) {
  std::string b;
  put(b, r.id);
  put(b, r.bins);
  put(b, r.updates);
  put(b, r.stats);
  return b;
}
std::string bytes_of(const serve::SpmvResult& r) {
  std::string b;
  put(b, r.id);
  put(b, r.y);
  put(b, r.nnz);
  put(b, r.stats);
  return b;
}
std::string bytes_of(const serve::MatchingResult& r) {
  std::string b;
  put(b, r.id);
  put(b, r.match);
  put(b, r.pairs);
  put(b, r.edges_examined);
  put(b, r.stats);
  return b;
}

// --- submission -------------------------------------------------------------

/// try_submit on either server type; the future lands in *out.
template <typename Server>
ServeStatus submit(Server& server, const Request& req, AnyFuture* out) {
  return std::visit(
      [&](const auto& q) {
        using Res = typename ResultOf<std::decay_t<decltype(q)>>::type;
        std::future<Res> f;
        const ServeStatus st = server.try_submit(q, &f);
        if (st == ServeStatus::kAdmitted) *out = std::move(f);
        return st;
      },
      req);
}

/// submit() until the answer is not kQueueFull. A full queue is
/// backpressure, not a failure: the request waits and is offered again,
/// and the wait counts in its latency. `backoffs` counts the retries.
template <typename Server>
ServeStatus offer(Server& server, const Request& req, AnyFuture* out,
                  std::uint64_t& backoffs) {
  for (;;) {
    const ServeStatus st = submit(server, req, out);
    if (st != ServeStatus::kQueueFull) return st;
    ++backoffs;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Wait for the response, check it and return its bytes. Throws what
/// the future carries.
std::string await(const Request& req, AnyFuture& fut, Checker& chk) {
  return std::visit(
      [&](const auto& q) {
        using Req = std::decay_t<decltype(q)>;
        using Res = typename ResultOf<Req>::type;
        const Res r = std::get<std::future<Res>>(fut).get();
        chk(q, r);
        return bytes_of(r);
      },
      req);
}

/// A response kept for the re-serve identity check.
struct Sample {
  Request req;
  std::string bytes;
  double loaded_seconds = 0.0;  ///< its latency under load
};

/// What a load phase saw.
struct PhaseStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t refused = 0;
  std::uint64_t failed = 0;  ///< futures that carried an exception
  std::uint64_t backoffs = 0;  ///< kQueueFull answers, offered again
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<double> latencies;  ///< admitted requests, seconds
  std::vector<double> admit;      ///< try_submit durations, seconds
  std::vector<double> lateness;   ///< open loop: pacer lateness, seconds
  std::vector<Sample> samples;
  Checker checker;

  void merge(PhaseStats&& o) {
    offered += o.offered;
    admitted += o.admitted;
    refused += o.refused;
    failed += o.failed;
    backoffs += o.backoffs;
    latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
    admit.insert(admit.end(), o.admit.begin(), o.admit.end());
    for (auto& s : o.samples) samples.push_back(std::move(s));
    checker.merge(o.checker);
  }
};

/// Shared request counter of one server's lifetime: every phase draws
/// the next indices, so ids never repeat except in the replay.
struct Source {
  const Mix* mix = nullptr;
  std::atomic<std::uint64_t> next{0};
};

/// Closed loop: `clients` threads, each sending its next request only
/// after the previous one completed, until `budget` seconds passed or
/// `max_requests` were sent. Each client keeps `keep` responses.
template <typename Server>
PhaseStats closed_loop(Server& server, Source& src, unsigned clients,
                       double budget, std::uint64_t max_requests,
                       std::size_t keep, Tracer* tr, const char* admit_span) {
  std::vector<PhaseStats> per(clients);
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(budget));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PhaseStats& ps = per[c];
      while (Clock::now() < deadline) {
        const std::uint64_t i = src.next.fetch_add(1);
        if (i >= max_requests) break;
        const Request req = (*src.mix)(i);
        const Scope root(tr, "load.request", 0, i);
        AnyFuture fut;
        const auto t0 = Clock::now();
        ServeStatus st;
        {
          const Scope s(tr, admit_span, root.id(), i);
          st = offer(server, req, &fut, ps.backoffs);
        }
        const auto t1 = Clock::now();
        ++ps.offered;
        if (st != ServeStatus::kAdmitted) {
          ++ps.refused;
          continue;
        }
        ++ps.admitted;
        if (tr != nullptr) ps.admit.push_back(seconds_between(t0, t1));
        try {
          const Scope s(tr, "serve.wait", root.id(), i);
          std::string bytes = await(req, fut, ps.checker);
          const double lat = seconds_between(t0, Clock::now());
          ps.latencies.push_back(lat);
          if (ps.samples.size() < keep) {
            ps.samples.push_back({req, std::move(bytes), lat});
          }
        } catch (const std::exception&) {
          ++ps.failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseStats all;
  all.wall = seconds_between(start, Clock::now());
  all.cpu = process_cpu_seconds() - cpu0;
  for (auto& p : per) all.merge(std::move(p));
  return all;
}

/// Open loop: one pacer offers requests at `rate` per second whatever
/// the completions; a collector waits for them in submission order.
/// Latency runs from each request's due time, so a stalled pacer or a
/// backed-up server shows up in every later request.
PhaseStats open_loop(serve::SamplingServer& server, Source& src, double rate,
                     double budget, std::size_t keep, Tracer* tr) {
  struct Pending {
    std::uint64_t index;
    Clock::time_point due;
    Request req;
    AnyFuture fut;
    std::uint64_t root;
  };
  PhaseStats ps;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mu
  bool closed = false;        // guarded by mu

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      try {
        std::string bytes;
        {
          const Scope s(tr, "serve.wait", p.root, p.index);
          bytes = await(p.req, p.fut, ps.checker);
        }
        const auto done = Clock::now();
        const double lat = seconds_between(p.due, done);
        ps.latencies.push_back(lat);
        if (tr != nullptr) {
          tr->record("load.request", p.root, 0, p.index, p.due, done);
        }
        if (ps.samples.size() < keep) {
          ps.samples.push_back({p.req, std::move(bytes), lat});
        }
      } catch (const std::exception&) {
        ++ps.failed;
      }
    }
  });

  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const auto n = static_cast<std::uint64_t>(budget * rate);
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto due = start + period * static_cast<Clock::rep>(k);
    std::this_thread::sleep_until(due);
    const std::uint64_t i = src.next.fetch_add(1);
    Pending p{i, due, (*src.mix)(i), AnyFuture{},
              tr != nullptr ? tr->new_id() : 0};
    const auto t0 = Clock::now();
    ps.lateness.push_back(seconds_between(due, t0));
    ServeStatus st;
    {
      const Scope s(tr, "serve.try_submit", p.root, i);
      st = offer(server, p.req, &p.fut, ps.backoffs);
    }
    if (tr != nullptr) ps.admit.push_back(seconds_between(t0, Clock::now()));
    ++ps.offered;
    if (st != ServeStatus::kAdmitted) {
      ++ps.refused;
      continue;
    }
    ++ps.admitted;
    {
      std::lock_guard lock(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard lock(mu);
    closed = true;
  }
  cv.notify_one();
  collector.join();
  ps.wall = seconds_between(start, Clock::now());
  ps.cpu = process_cpu_seconds() - cpu0;
  return ps;
}

/// Replay kept requests one at a time against an idle server: their
/// bytes must match the loaded responses exactly. Derivation is timed
/// only in the traced run.
struct Replay {
  std::vector<double> service;
  std::vector<double> queue;   ///< loaded latency minus service time
  std::vector<double> admit;
  std::vector<double> derive;          ///< jump-ahead (MT(521) splitter)
  std::vector<double> counter_derive;  ///< counter-based (Philox)
  std::array<double, std::size(kKindNames)> service_by_kind{};
  std::uint64_t mismatches = 0;
  std::uint64_t refused = 0;

  /// "gamma 0.41, creditrisk 0.30, ...": each kind's share of the
  /// replayed service time.
  std::string kind_shares() const {
    double total = 0.0;
    for (const double s : service_by_kind) total += s;
    std::string out;
    for (std::size_t k = 0; k < service_by_kind.size(); ++k) {
      if (service_by_kind[k] == 0.0) continue;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%s %.3f", out.empty() ? "" : ", ",
                    kKindNames[k], service_by_kind[k] / total);
      out += buf;
    }
    return out;
  }
};

/// Time one substream derivation of request `id` in each rng family,
/// at the serving geometry: request `id` owns substream
/// `id * substreams_per_request`. Only rng-layer calls are timed, so
/// this does not depend on which family the server is set to use.
void time_derivations(const rng::SubstreamSplitter& jump,
                      const rng::CounterSubstreams& counter,
                      std::uint64_t index, Tracer* tr, std::uint64_t id,
                      Replay& rp) {
  {
    const Scope d(tr, "rng.derive", 0, id);
    const auto t0 = Clock::now();
    (void)jump.stream(index).next();
    rp.derive.push_back(seconds_between(t0, Clock::now()));
  }
  const Scope d(tr, "rng.counter_derive", 0, id);
  const auto t0 = Clock::now();
  (void)counter.stream(index).next();
  rp.counter_derive.push_back(seconds_between(t0, Clock::now()));
}

template <typename ShardOf>
Replay replay(const std::vector<Sample>& samples, ShardOf shard_of,
              Tracer* tr, Checker& chk) {
  Replay rp;
  // Every shard shares the seed and geometry of the first one.
  const serve::ServeConfig& geometry = shard_of(0).config();
  std::optional<rng::SubstreamSplitter> jump;
  std::optional<rng::CounterSubstreams> counter;
  if (tr != nullptr) {
    jump.emplace(rng::mt521_params(), geometry.server_seed,
                 geometry.substream_stride);
    counter.emplace(geometry.server_seed, geometry.substream_stride);
    // Grow the splitter's squaring chain to the ids' width first, as
    // the server's own splitter did while it served them.
    (void)jump->stream(request_id(0) * geometry.substreams_per_request);
  }
  for (const Sample& s : samples) {
    const serve::RequestId id =
        std::visit([](const auto& q) { return q.id; }, s.req);
    serve::SamplingServer& server = shard_of(id);
    const Scope root(tr, "serve.service", 0, id);
    AnyFuture fut;
    const auto t0 = Clock::now();
    ServeStatus st;
    {
      const Scope a(tr, "serve.try_submit", root.id(), id);
      st = submit(server, s.req, &fut);
    }
    const auto t1 = Clock::now();
    if (st != ServeStatus::kAdmitted) {
      ++rp.refused;
      continue;
    }
    std::string bytes;
    {
      const Scope w(tr, "serve.wait", root.id(), id);
      bytes = await(s.req, fut, chk);
    }
    const double service = seconds_between(t0, Clock::now());
    rp.service.push_back(service);
    rp.service_by_kind[s.req.index()] += service;
    rp.queue.push_back(s.loaded_seconds - service);
    rp.admit.push_back(seconds_between(t0, t1));
    if (bytes != s.bytes) ++rp.mismatches;
    if (tr != nullptr) {
      time_derivations(*jump, *counter, id * geometry.substreams_per_request,
                       tr, id, rp);
    }
  }
  return rp;
}

/// Admission/completion conservation of one server at quiescence.
void check_conservation(const serve::MetricsSnapshot& m, Outcome& out,
                        const std::string& who) {
  out.check(m.submitted == m.admitted + m.rejected_full + m.rejected_invalid +
                               m.rejected_shutdown + m.cache_hits,
            who + ": submitted != admitted + rejected + cache hits");
  out.check(m.completed + m.failed == m.admitted + m.cache_hits,
            who + ": completed + failed != admitted");
  std::uint64_t sub = 0, done = 0;
  for (std::size_t k = 0; k < m.submitted_by_kind.size(); ++k) {
    sub += m.submitted_by_kind[k];
    done += m.completed_by_kind[k];
  }
  out.check(sub == m.submitted && done == m.completed,
            who + ": per-kind counters do not sum to the totals");
}

/// Re-serve sample, outcome accounting and the checks shared by both
/// workloads.
void finish_checks(Checker& chk, const Replay& rp, std::uint64_t admitted,
                   std::uint64_t server_admitted, Outcome& out) {
  chk.check_means();
  for (const auto& f : chk.failures) out.check(false, f);
  out.check(rp.mismatches == 0 && rp.refused == 0,
            "re-served responses are not byte-identical");
  out.check(admitted == server_admitted,
            "server admitted a different number of requests than were sent "
            "(every admitted future must be fulfilled exactly once)");
}

double p50_us(const std::vector<double>& v) { return median(v) * 1e6; }

/// A p99 needs at least ten samples beyond it; short runs say so.
void note_p99_support(std::size_t samples, Outcome& out) {
  if (samples < 1000) {
    out.notes.push_back("p99_ms rests on " + std::to_string(samples) +
                        " samples, fewer than the 1000 it needs");
  }
}

// --- serve_small -------------------------------------------------------------

struct SmallRun {
  PhaseStats closed;
  PhaseStats open;
};

SmallRun small_phases(serve::SamplingServer& server, Source& src,
                      unsigned threads, double budget, std::size_t keep,
                      Tracer* tr) {
  SmallRun r;
  r.closed = closed_loop(server, src, threads, 0.4 * budget, ~0ull, keep, tr,
                         "serve.try_submit");
  r.open = open_loop(server, src, kSmallRate, 0.6 * budget, keep, tr);
  return r;
}

}  // namespace

Outcome run_serve_small(const Options& opt) {
  Outcome out;
  exec::set_thread_count(opt.threads);

  Mix mix;
  std::unique_ptr<serve::SamplingServer> server;
  std::unique_ptr<Source> src;
  std::uint64_t sent_admitted = 0;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    server.reset();  // the previous set-up's teardown is not set-up time
    const auto t0 = Clock::now();
    mix = Mix{false, opt.seed, nullptr};
    src = std::make_unique<Source>();
    src->mix = &mix;
    serve::ServeConfig cfg;
    cfg.server_seed = static_cast<std::uint32_t>(opt.seed);
    server = std::make_unique<serve::SamplingServer>(cfg);
    const PhaseStats warm =
        closed_loop(*server, *src, opt.threads, 60.0, 4000, 0, nullptr,
                    "serve.try_submit");
    setups.push_back(seconds_between(t0, Clock::now()));
    sent_admitted = warm.admitted;
    out.attempted += warm.offered;
    out.failed += warm.refused + warm.failed;
  }

  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  SmallRun run = small_phases(*server, *src, opt.threads, budget, 8, nullptr);
  Checker chk;
  chk.merge(run.closed.checker);
  chk.merge(run.open.checker);
  PhaseStats& closed = run.closed;
  PhaseStats& open = run.open;

  const double rps = static_cast<double>(closed.latencies.size()) / closed.wall;
  const double p50 = median(open.latencies);
  std::uint64_t within = 0;
  for (const double l : open.latencies) within += l <= kSmallSloSeconds;
  const double offered = static_cast<double>(open.offered);

  std::vector<Sample> samples = closed.samples;
  for (const auto& s : open.samples) samples.push_back(s);

  Tracer tr;
  SmallRun traced;
  if (opt.trace) {
    traced = small_phases(*server, *src, opt.threads, opt.seconds / 2, 400,
                          &tr);
    chk.merge(traced.closed.checker);
    chk.merge(traced.open.checker);
    // Replay what the traced open loop kept: its loaded latencies are
    // from due time, the service times from an idle server.
    samples = traced.open.samples;
  }
  const Replay rp = replay(
      samples,
      [&](serve::RequestId) -> serve::SamplingServer& { return *server; },
      opt.trace ? &tr : nullptr, chk);

  std::uint64_t admitted = sent_admitted + closed.admitted + open.admitted +
                           traced.closed.admitted + traced.open.admitted +
                           rp.service.size();
  const serve::MetricsSnapshot snap = server->metrics();
  finish_checks(chk, rp, admitted, snap.admitted, out);
  check_conservation(snap, out, "serve_small");

  for (const PhaseStats* p : {&closed, &open, &traced.closed, &traced.open}) {
    out.attempted += p->offered;
    out.failed += p->refused + p->failed;
  }
  out.attempted += samples.size();
  out.failed += rp.refused;

  out.set("setup_s", median(setups), "s");
  out.set("p50_ms", p50 * 1e3, "ms");
  out.set("ops_per_s", rps, "1/s");
  out.set("rps", rps, "1/s");
  out.set("p99_ms", percentile(open.latencies, 99.0) * 1e3, "ms");
  note_p99_support(open.latencies.size(), out);
  out.set("slo_frac", static_cast<double>(within) / offered, "frac");
  out.set("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "frac");
  out.notes.push_back(
      "closed loop: " + std::to_string(closed.latencies.size()) +
      " requests, p50 " + std::to_string(median(closed.latencies) * 1e3) +
      " ms, p99 " +
      std::to_string(percentile(closed.latencies, 99.0) * 1e3) + " ms");
  out.notes.push_back("open loop at " + std::to_string(kSmallRate) +
                      " rps: " + std::to_string(open.offered) + " offered, " +
                      std::to_string(open.refused) + " refused, " +
                      std::to_string(open.backoffs) +
                      " queue-full retries, " +
                      std::to_string(open.latencies.size()) +
                      " completed; SLO " +
                      std::to_string(kSmallSloSeconds * 1e3) + " ms");
  out.notes.push_back("set-up seconds: " + list_seconds(setups));
  out.notes.push_back("idle service-time share by kind (" +
                      std::to_string(rp.service.size()) +
                      " replayed requests): " + rp.kind_shares());

  if (opt.trace) {
    const PhaseStats& tc = traced.closed;
    const PhaseStats& to = traced.open;
    std::vector<double> admit = tc.admit;
    admit.insert(admit.end(), to.admit.begin(), to.admit.end());
    out.set("serve.admit_us", p50_us(admit), "us");
    out.set("rng.derive_us", p50_us(rp.derive), "us");
    out.set("rng.counter_derive_us", p50_us(rp.counter_derive), "us");
    out.set("serve.service_us", p50_us(rp.service), "us");
    out.set("serve.queue_us", p50_us(rp.queue), "us");
    out.set("load.late_ms", percentile(to.lateness, 99.0) * 1e3, "ms");
    out.set("exec.cpu_s", closed.cpu / static_cast<double>(closed.admitted),
            "s");
    out.set("exec.util", closed.cpu / (closed.wall * opt.threads), "frac");
    out.set("trace.overhead", median(to.latencies) / p50 - 1.0, "frac");
    const std::string path = opt.out_dir + "/serve_small-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    out.check(tr.write_chrome_trace(path), "could not write " + path);
    out.notes.push_back("trace: " + path + " (" + std::to_string(tr.size()) +
                        " spans)");
  }
  server.reset();
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

Outcome run_serve_heavy(const Options& opt) {
  Outcome out;
  exec::set_thread_count(opt.threads);

  Mix mix;
  std::unique_ptr<serve::ShardedSamplingServer> cluster;
  std::unique_ptr<Source> src;
  std::uint64_t sent_admitted = 0;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    cluster.reset();  // the previous set-up's teardown is not set-up time
    const auto t0 = Clock::now();
    mix = Mix{true, opt.seed,
              std::make_shared<const finance::Portfolio>(
                  eight_sector_book())};
    src = std::make_unique<Source>();
    src->mix = &mix;
    serve::ClusterConfig cfg;
    cfg.num_shards = 2;
    cfg.shard.server_seed = static_cast<std::uint32_t>(opt.seed);
    cluster = std::make_unique<serve::ShardedSamplingServer>(cfg);
    const PhaseStats warm = closed_loop(*cluster, *src, opt.threads, 60.0, 200,
                                        0, nullptr, "cluster.try_submit");
    setups.push_back(seconds_between(t0, Clock::now()));
    sent_admitted = warm.admitted;
    out.attempted += warm.offered;
    out.failed += warm.refused + warm.failed;
  }

  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  PhaseStats closed = closed_loop(*cluster, *src, opt.threads, budget, ~0ull,
                                  4, nullptr, "cluster.try_submit");
  Checker chk;
  chk.merge(closed.checker);
  const double rps = static_cast<double>(closed.latencies.size()) / closed.wall;
  const double p50 = median(closed.latencies);
  std::vector<Sample> samples = closed.samples;

  Tracer tr;
  PhaseStats traced;
  if (opt.trace) {
    traced = closed_loop(*cluster, *src, opt.threads, opt.seconds / 2, ~0ull,
                         40, &tr, "cluster.try_submit");
    chk.merge(traced.checker);
    samples = traced.samples;
  }
  // Replay through each request's primary shard: placement must be
  // invisible in the bytes.
  const Replay rp = replay(
      samples,
      [&](serve::RequestId id) -> serve::SamplingServer& {
        return cluster->shard(cluster->placement_order(id).front());
      },
      opt.trace ? &tr : nullptr, chk);

  const serve::ClusterSnapshot snap = cluster->metrics();
  std::uint64_t shard_admitted = 0, stolen_in = 0;
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    const auto& sh = snap.shards[i];
    check_conservation(sh.metrics, out, "shard " + std::to_string(i));
    shard_admitted += sh.metrics.admitted;
    stolen_in += sh.stolen_in;
  }
  out.check(snap.submitted == snap.admitted + snap.rejected_full +
                                  snap.rejected_invalid +
                                  snap.rejected_shutdown,
            "router: submitted != admitted + rejected");
  out.check(stolen_in == snap.stolen, "router: stolen counts disagree");
  const std::uint64_t admitted =
      sent_admitted + closed.admitted + traced.admitted;
  // Replayed requests went to the shards directly, not through the router.
  out.check(shard_admitted == snap.admitted + rp.service.size(),
            "shards admitted a different number than the router");
  finish_checks(chk, rp, admitted, snap.admitted, out);

  for (const PhaseStats* p : {&closed, &traced}) {
    out.attempted += p->offered;
    out.failed += p->refused + p->failed;
  }
  out.attempted += samples.size();
  out.failed += rp.refused;

  out.set("setup_s", median(setups), "s");
  out.set("p50_ms", p50 * 1e3, "ms");
  out.set("ops_per_s", rps, "1/s");
  out.set("rps", rps, "1/s");
  out.set("p99_ms", percentile(closed.latencies, 99.0) * 1e3, "ms");
  note_p99_support(closed.latencies.size(), out);
  out.set("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "frac");
  out.notes.push_back("closed loop: " +
                      std::to_string(closed.latencies.size()) +
                      " requests over 2 shards");
  out.notes.push_back("set-up seconds: " + list_seconds(setups));
  out.notes.push_back("idle service-time share by kind (" +
                      std::to_string(rp.service.size()) +
                      " replayed requests): " + rp.kind_shares());

  if (opt.trace) {
    double max_share = 0.0;
    for (const auto& sh : snap.shards) {
      max_share = std::max(
          max_share, static_cast<double>(sh.routed_primary + sh.stolen_in) /
                         static_cast<double>(snap.admitted));
    }
    out.set("cluster.admit_us", p50_us(traced.admit), "us");
    out.set("cluster.stolen_frac",
            static_cast<double>(snap.stolen) /
                static_cast<double>(snap.admitted),
            "frac");
    out.set("cluster.max_share", max_share, "frac");
    out.set("serve.admit_us", p50_us(rp.admit), "us");
    out.set("rng.derive_us", p50_us(rp.derive), "us");
    out.set("rng.counter_derive_us", p50_us(rp.counter_derive), "us");
    out.set("serve.service_us", p50_us(rp.service), "us");
    out.set("serve.queue_us", p50_us(rp.queue), "us");
    out.set("exec.cpu_s", closed.cpu / static_cast<double>(closed.admitted),
            "s");
    out.set("exec.util", closed.cpu / (closed.wall * opt.threads), "frac");
    out.set("trace.overhead", median(traced.latencies) / p50 - 1.0, "frac");
    const std::string path = opt.out_dir + "/serve_heavy-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    out.check(tr.write_chrome_trace(path), "could not write " + path);
    out.notes.push_back("trace: " + path + " (" + std::to_string(tr.size()) +
                        " spans)");
  }
  cluster.reset();
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
