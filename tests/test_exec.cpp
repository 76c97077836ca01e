// Determinism tests for the parallel execution engine (src/exec):
//   * parallel_for / parallel_map / parallel_reduce cover every index
//     exactly once, keep results in index order, and propagate
//     exceptions;
//   * run_task_graph runs every task once after its dependences, and
//     returns a failure to the caller, nested in a pool task too;
//   * SubstreamSplitter serves order-independent jump-ahead substreams
//     that tile the master sequence;
//   * the SIMT runtime estimate and GammaWorkItem streams do not
//     depend on the thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/error.h"
#include "core/gamma_work_item.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "rng/configs.h"
#include "rng/jump.h"
#include "simt/runtime_estimator.h"

namespace dwi {
namespace {

/// Restores the default thread count when a test returns early.
struct ThreadCountGuard {
  ~ThreadCountGuard() { exec::set_thread_count(0); }
};

// ---------------------------------------------------------------------
// parallel_for / parallel_map / parallel_reduce
// ---------------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::set_thread_count(threads);
    std::vector<std::atomic<int>> hits(1000);
    exec::parallel_for(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ZeroAndOneIndexWork) {
  exec::parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  exec::parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesExceptionsAndDoesNotHang) {
  ThreadCountGuard guard;
  exec::set_thread_count(4);
  EXPECT_THROW(exec::parallel_for(100,
                                  [](std::size_t i) {
                                    if (i == 37) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // The caller participates in its own loop, so a body that itself
  // calls parallel_for cannot starve: even with every pool worker
  // blocked in outer bodies, each blocked caller keeps claiming its
  // inner indices.
  ThreadCountGuard guard;
  exec::set_thread_count(2);
  std::atomic<int> total{0};
  exec::parallel_for(8, [&](std::size_t) {
    exec::parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelMap, ResultsAreInIndexOrderForAnyThreadCount) {
  ThreadCountGuard guard;
  for (const unsigned threads : {1u, 3u, 8u}) {
    exec::set_thread_count(threads);
    const auto squares =
        exec::parallel_map(257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 257u);
    for (std::size_t i = 0; i < squares.size(); ++i) {
      ASSERT_EQ(squares[i], i * i);
    }
  }
}

TEST(ParallelReduce, FoldsInIndexOrder) {
  // Floating-point reduction: the fold happens on the caller in index
  // order, so the sum is bitwise identical to the serial loop no
  // matter how many threads computed the terms.
  ThreadCountGuard guard;
  const auto term = [](std::size_t i) {
    return 1.0 / static_cast<double>(i + 1);
  };
  double serial = 0.0;
  for (std::size_t i = 0; i < 5000; ++i) serial += term(i);
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::set_thread_count(threads);
    const double parallel = exec::parallel_reduce(
        5000, 0.0, term, [](double a, double b) { return a + b; });
    ASSERT_EQ(serial, parallel) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------
// run_task_graph
// ---------------------------------------------------------------------

/// `layers` layers of `width` tasks, numbered layer by layer; a task is
/// ready once every task of the layer before it is done. run() checks
/// that order and can be told to throw at one task.
struct LayeredGraph {
  std::size_t layers, width;
  std::size_t throw_at = SIZE_MAX;
  std::size_t next = 0;                 // tasks claimed, under the lock
  std::vector<std::size_t> layer_done;  // under the lock
  std::vector<std::atomic<int>> ran;
  std::atomic<bool> out_of_order{false};

  LayeredGraph(std::size_t l, std::size_t w)
      : layers(l), width(w), layer_done(l, 0), ran(l * w) {}

  void run_all() {
    exec::run_task_graph(
        width,
        [&]() -> std::optional<std::size_t> {
          if (next == ran.size()) return std::nullopt;
          const std::size_t l = next / width;
          if (l > 0 && layer_done[l - 1] < width) return std::nullopt;
          return next++;
        },
        [&](std::size_t t) {
          const std::size_t l = t / width;
          for (std::size_t j = 0; l > 0 && j < width; ++j) {
            if (ran[(l - 1) * width + j].load() != 1) out_of_order = true;
          }
          if (t == throw_at) throw std::runtime_error("task failed");
          ran[t].fetch_add(1);
        },
        [&](std::size_t t) { ++layer_done[t / width]; });
  }

  int total_runs() const {
    int n = 0;
    for (const auto& r : ran) n += r.load();
    return n;
  }
};

TEST(ExecTaskGraph, RunsEveryTaskOnceAfterItsDependences) {
  ThreadCountGuard guard;
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    exec::set_thread_count(threads);
    LayeredGraph g(50, threads + 1);
    g.run_all();
    for (const auto& r : g.ran) ASSERT_EQ(r.load(), 1) << "threads=" << threads;
    EXPECT_FALSE(g.out_of_order.load()) << "threads=" << threads;
  }
}

TEST(ExecTaskGraph, ATaskThrowingMidGraphReachesTheCaller) {
  // The failed task's layer never completes, so no task after it may
  // start; the call must return rather than leave a thread waiting,
  // and the pool must still run the next graph to the end.
  ThreadCountGuard guard;
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::set_thread_count(threads);
    LayeredGraph g(20, 4);
    g.throw_at = 9 * 4 + 2;
    EXPECT_THROW(g.run_all(), std::runtime_error) << "threads=" << threads;
    for (std::size_t t = 10 * 4; t < g.ran.size(); ++t) {
      ASSERT_EQ(g.ran[t].load(), 0) << "threads=" << threads << " task=" << t;
    }
    EXPECT_LT(g.total_runs(), 10 * 4);
    LayeredGraph after(20, 4);
    after.run_all();
    EXPECT_EQ(after.total_runs(), 80) << "threads=" << threads;
  }
}

TEST(ExecTaskGraph, CompletesInsideAPoolTask) {
  // Each outer task's graph asks for every pool thread, which are all
  // busy with outer tasks; the callers run their own graphs.
  ThreadCountGuard guard;
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::set_thread_count(threads);
    std::vector<int> runs(8, 0);
    exec::parallel_for(runs.size(), [&](std::size_t i) {
      LayeredGraph g(10, 3);
      g.run_all();
      runs[i] = g.out_of_order.load() ? -1 : g.total_runs();
    });
    for (const int r : runs) EXPECT_EQ(r, 30) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------

TEST(ExecConfig, ParseThreadsAcceptsPlainPositiveCounts) {
  EXPECT_EQ(exec::ExecConfig::parse_threads("1"), 1u);
  EXPECT_EQ(exec::ExecConfig::parse_threads("8"), 8u);
  EXPECT_EQ(exec::ExecConfig::parse_threads("007"), 7u);
  EXPECT_EQ(exec::ExecConfig::parse_threads("4096"),
            exec::ExecConfig::kMaxThreads);
}

TEST(ExecConfig, ParseThreadsRejectsMisconfigurations) {
  // A silently ignored bad DWI_THREADS used to misconfigure the pool;
  // each of these must now fail loudly instead.
  EXPECT_THROW(exec::ExecConfig::parse_threads(""), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("0"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("000"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("-2"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("+4"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads(" 8"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("8 "), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("4x"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("not-a-number"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("0x10"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("4097"), Error);
  EXPECT_THROW(exec::ExecConfig::parse_threads("99999999999"), Error);
}

TEST(ExecConfig, EnvParsingAndOverride) {
  ThreadCountGuard guard;
  ::setenv("DWI_THREADS", "3", 1);
  EXPECT_EQ(exec::ExecConfig::from_env().resolved(), 3u);
  ::setenv("DWI_THREADS", "not-a-number", 1);
  EXPECT_THROW(exec::ExecConfig::from_env(), Error);
  ::setenv("DWI_THREADS", "0", 1);
  EXPECT_THROW(exec::ExecConfig::from_env(), Error);
  ::unsetenv("DWI_THREADS");
  EXPECT_GE(exec::ExecConfig::from_env().resolved(), 1u);

  exec::set_thread_count(5);
  EXPECT_EQ(exec::thread_count(), 5u);
  exec::set_thread_count(0);
  EXPECT_GE(exec::thread_count(), 1u);
}

// ---------------------------------------------------------------------
// RNG substreams
// ---------------------------------------------------------------------

TEST(SubstreamSplitter, TilesTheMasterSequence) {
  const auto p = rng::mt521_params();
  constexpr std::uint64_t kStride = 2000;
  const rng::SubstreamSplitter splitter(p, 11u, kStride);
  rng::MersenneTwister master(p, 11u);
  for (std::uint64_t s = 0; s < 4; ++s) {
    rng::MersenneTwister stream = splitter.stream(s);
    for (std::uint64_t i = 0; i < kStride; ++i) {
      ASSERT_EQ(stream.next(), master.next())
          << "substream " << s << " output " << i;
    }
  }
}

TEST(SubstreamSplitter, AccessOrderDoesNotMatter) {
  // Parallel shards claim indices dynamically; stream(i) must depend
  // only on i. Query out of order and compare with in-order access.
  const auto p = rng::mt521_params();
  const rng::SubstreamSplitter splitter(p, 3u, 777);
  rng::MersenneTwister late_first = splitter.stream(5);
  rng::MersenneTwister early = splitter.stream(1);
  rng::MersenneTwister late_again = splitter.stream(5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(late_first.next(), late_again.next());
  }
  // And it equals the eager partitioning helper.
  auto eager = rng::make_parallel_streams(p, 3u, 2, 777);
  for (int i = 0; i < 500; ++i) ASSERT_EQ(early.next(), eager[1].next());
}

/// Work-item `wid`'s outputs over one sector of 200 on Config2 (MT(521)),
/// the paper's distinct-seed streams.
std::vector<float> distinct_seed_outputs(unsigned wid) {
  core::GammaWorkItemConfig wc;
  wc.app = rng::config(rng::ConfigId::kConfig2);
  wc.outputs_per_sector = 200;
  wc.work_item_id = wid;
  wc.seed = 5u;
  core::GammaWorkItem wi(wc);
  std::vector<float> out;
  float v = 0.0f;
  while (!wi.finished()) {
    if (wi.produce(&v)) out.push_back(v);
  }
  return out;
}

TEST(GammaWorkItem, DistinctSeedRunIsDeterministic) {
  const auto a = distinct_seed_outputs(2);
  ASSERT_EQ(a.size(), 200u);
  ASSERT_EQ(a, distinct_seed_outputs(2));
}

TEST(GammaWorkItem, DistinctSeedWorkItemsDiffer) {
  // Work-items 0 and 1 derive different seeds for all four twisters;
  // their outputs must differ.
  EXPECT_NE(distinct_seed_outputs(0), distinct_seed_outputs(1));
}

// ---------------------------------------------------------------------
// SIMT estimator thread-invariance
// ---------------------------------------------------------------------

TEST(RuntimeEstimator, ResultIsThreadCountInvariant) {
  ThreadCountGuard guard;
  const auto& cfg = rng::config(rng::ConfigId::kConfig1);
  simt::NdRangeWorkload w;
  exec::set_thread_count(1);
  const auto serial = simt::estimate_runtime(
      simt::platform(simt::PlatformId::kGpu), cfg,
      cfg.fixed_arch_transform, w);
  for (const unsigned threads : {2u, 8u}) {
    exec::set_thread_count(threads);
    const auto parallel = simt::estimate_runtime(
        simt::platform(simt::PlatformId::kGpu), cfg,
        cfg.fixed_arch_transform, w);
    EXPECT_EQ(serial.seconds, parallel.seconds);
    EXPECT_EQ(serial.slots_total, parallel.slots_total);
    EXPECT_EQ(serial.simd_efficiency, parallel.simd_efficiency);
    EXPECT_EQ(serial.rejection_rate, parallel.rejection_rate);
    EXPECT_EQ(serial.slots_per_output, parallel.slots_per_output);
  }
}

}  // namespace
}  // namespace dwi
