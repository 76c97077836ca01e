// Block-vs-scalar equivalence suites for the hot-path overhaul: the
// block-generated RNG fast path and the tape-batched rejection
// pipeline must be bit-identical to their scalar reference
// formulations — these tests pin that contract on every layer. (The
// event-driven KernelSim has its own oracle suite,
// tests/test_kernel_sim_engine.cpp.)
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gamma_work_item.h"
#include "rng/configs.h"
#include "rng/gamma.h"
#include "rng/jump.h"
#include "rng/mersenne_twister.h"
#include "rng/normal.h"

namespace dwi {
namespace {

// ---------------------------------------------------------------------
// generate_block == next() sequence, across block boundaries
// ---------------------------------------------------------------------

void expect_block_matches_next(const rng::MtParams& params,
                               std::uint32_t seed) {
  rng::MersenneTwister scalar(params, seed);
  rng::MersenneTwister blocked(params, seed);

  // Sizes chosen to start, straddle and end exactly on state-array
  // boundaries for both geometries (n = 624 and n = 17).
  const std::size_t sizes[] = {1, 3, 16, 17, 18, 623, 624, 625, 1000, 2};
  std::vector<std::uint32_t> buf;
  for (const std::size_t size : sizes) {
    buf.assign(size, 0);
    blocked.generate_block(buf.data(), size);
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_EQ(scalar.next(), buf[i]) << "size " << size << " pos " << i;
    }
  }
}

TEST(BlockRng, Mt19937GenerateBlockMatchesNext) {
  expect_block_matches_next(rng::mt19937_params(), 5489u);
  expect_block_matches_next(rng::mt19937_params(), 1u);
}

TEST(BlockRng, Mt521GenerateBlockMatchesNext) {
  expect_block_matches_next(rng::mt521_params(), 1u);
  expect_block_matches_next(rng::mt521_params(), 0xdeadbeefu);
}

TEST(BlockRng, GenerateBlockAfterJumpAhead) {
  // Jump-ahead substreams are constructed from raw states; the block
  // path must continue the recurrence identically from there.
  const rng::MtParams params = rng::mt521_params();
  const rng::SubstreamSplitter splitter(params, 42u, 1000);
  for (const std::uint64_t index : {0ull, 1ull, 7ull}) {
    rng::MersenneTwister scalar = splitter.stream(index);
    rng::MersenneTwister blocked = splitter.stream(index);
    std::uint32_t buf[200];
    blocked.generate_block(buf, 200);
    for (std::size_t i = 0; i < 200; ++i) {
      ASSERT_EQ(scalar.next(), buf[i]) << "stream " << index << " pos " << i;
    }
  }

  // make_jumped must agree with manually skipping on the block path.
  rng::MersenneTwister jumped = rng::make_jumped(params, 9u, 345);
  rng::MersenneTwister stepped(params, 9u);
  std::uint32_t sink[345];
  stepped.generate_block(sink, 345);
  std::uint32_t a[64], b[64];
  jumped.generate_block(a, 64);
  stepped.generate_block(b, 64);
  for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(BlockRng, AdaptedEnabledBlockMatchesNext) {
  const rng::MtParams params = rng::mt521_params();
  rng::AdaptedMersenneTwister scalar(params, 7u);
  rng::AdaptedMersenneTwister blocked(params, 7u);

  // Interleave disabled peeks into the scalar twin exactly as the
  // pipeline would; they must not perturb the committed stream.
  std::uint32_t buf[100];
  blocked.generate_block(buf, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    if (i % 3 == 0) {
      const std::uint32_t peek = scalar.next(false);
      ASSERT_EQ(peek, scalar.next(false));  // peeks are idempotent
    }
    ASSERT_EQ(scalar.next(true), buf[i]) << "pos " << i;
  }
  ASSERT_EQ(scalar.committed_steps(), blocked.committed_steps());
}

// ---------------------------------------------------------------------
// GammaSampler::sample_block == repeated sample(), draw-for-draw
// ---------------------------------------------------------------------

TEST(BlockRng, SamplerBlockMatchesScalar) {
  for (const float variance : {1.39f, 0.5f}) {
    for (const auto transform : {rng::NormalTransform::kMarsagliaBray,
                                 rng::NormalTransform::kIcdfBitwise,
                                 rng::NormalTransform::kIcdfCuda}) {
      const auto k = rng::GammaConstants::from_sector_variance(variance);
      rng::GammaSampler scalar(k, transform);
      rng::GammaSampler blocked(k, transform);

      rng::MersenneTwister mt_scalar(rng::mt19937_params(), 123u);
      rng::MersenneTwister mt_block(rng::mt19937_params(), 123u);

      constexpr std::size_t kCount = 4000;
      std::vector<float> a(kCount), b(kCount);
      for (std::size_t i = 0; i < kCount; ++i) {
        a[i] = scalar.sample([&] { return mt_scalar.next(); });
      }
      blocked.sample_block(mt_block, b.data(), kCount);

      ASSERT_EQ(a, b) << "variance " << variance;
      EXPECT_EQ(scalar.attempts(), blocked.attempts());
      EXPECT_EQ(scalar.accepted(), blocked.accepted());
    }
  }
}

TEST(BlockRng, PhiloxSamplerBlockIsPrefixStableAndDeterministic) {
  // sample_block(Philox&) defines its own deterministic attempt order:
  // out[] must be a prefix of one infinite per-stream tape, so asking
  // for more samples never changes the ones already produced, and the
  // result is a pure function of the Philox key/position.
  for (const float variance : {1.39f, 0.5f}) {
    for (const auto transform : {rng::NormalTransform::kMarsagliaBray,
                                 rng::NormalTransform::kIcdfBitwise,
                                 rng::NormalTransform::kIcdfCuda}) {
      const auto k = rng::GammaConstants::from_sector_variance(variance);

      std::vector<float> small(700), large(4000), again(4000);
      {
        rng::GammaSampler s(k, transform);
        rng::Philox px(2024u, 9);
        s.sample_block(px, small.data(), small.size());
      }
      {
        rng::GammaSampler s(k, transform);
        rng::Philox px(2024u, 9);
        s.sample_block(px, large.data(), large.size());
      }
      {
        rng::GammaSampler s(k, transform);
        rng::Philox px(2024u, 9);
        s.sample_block(px, again.data(), again.size());
      }
      ASSERT_EQ(large, again) << "variance " << variance;
      ASSERT_TRUE(std::equal(small.begin(), small.end(), large.begin()))
          << "variance " << variance << ": short request is not a prefix "
          << "of the long one";
    }
  }
}

TEST(BlockRng, PhiloxSamplerStatsAreConsistent) {
  const auto k = rng::GammaConstants::from_sector_variance(1.39f);
  rng::GammaSampler s(k, rng::NormalTransform::kMarsagliaBray);
  rng::Philox px(7u, 0);
  std::vector<float> out(5000);
  s.sample_block(px, out.data(), out.size());
  EXPECT_GE(s.accepted(), out.size());
  EXPECT_GT(s.attempts(), s.accepted());
  for (const float v : out) ASSERT_GT(v, 0.0f);
}

// ---------------------------------------------------------------------
// Tape-batched GammaWorkItem == scalar Listing 2 path, call-for-call
// ---------------------------------------------------------------------

struct WorkItemRun {
  std::vector<std::uint8_t> flags;  ///< produce() return per call
  std::vector<float> values;
  std::uint64_t iterations = 0;
  std::uint64_t outputs = 0;
};

WorkItemRun run_work_item(const core::GammaWorkItemConfig& cfg) {
  core::GammaWorkItem wi(cfg);
  WorkItemRun run;
  // Call produce() past finish to also pin the finished() transition.
  std::uint64_t guard = 0;
  while (!wi.finished()) {
    float v = 0.0f;
    const bool ok = wi.produce(&v);
    if (wi.finished()) break;  // the finishing call performs no iteration
    run.flags.push_back(ok ? 1 : 0);
    if (ok) run.values.push_back(v);
    if (++guard > std::uint64_t{10'000'000}) {
      ADD_FAILURE() << "runaway work-item";
      break;
    }
  }
  run.iterations = wi.iterations();
  run.outputs = wi.outputs();
  return run;
}

TEST(BatchedWorkItem, MatchesScalarPathAllConfigs) {
  for (const auto id : {rng::ConfigId::kConfig1, rng::ConfigId::kConfig2,
                        rng::ConfigId::kConfig3, rng::ConfigId::kConfig4}) {
    for (const std::uint32_t batch : {4u, 97u, 2048u}) {
      core::GammaWorkItemConfig scalar_cfg;
      scalar_cfg.app = rng::config(id);
      scalar_cfg.sector_variances = {1.39f, 0.5f, 2.0f, 1.0f};
      scalar_cfg.outputs_per_sector = 96;
      scalar_cfg.break_id = 2;
      scalar_cfg.work_item_id = 3;
      scalar_cfg.seed = 11;
      scalar_cfg.batch_iterations = 1;  // scalar reference path

      core::GammaWorkItemConfig batched_cfg = scalar_cfg;
      batched_cfg.batch_iterations = batch;

      const WorkItemRun a = run_work_item(scalar_cfg);
      const WorkItemRun b = run_work_item(batched_cfg);

      ASSERT_EQ(a.flags, b.flags)
          << "config " << static_cast<int>(id) << " batch " << batch;
      ASSERT_EQ(a.values, b.values)
          << "config " << static_cast<int>(id) << " batch " << batch;
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.outputs, b.outputs);
    }
  }
}

TEST(BatchedWorkItem, MatchesScalarPathJumpAhead) {
  core::GammaWorkItemConfig scalar_cfg;
  scalar_cfg.app = rng::config(rng::ConfigId::kConfig2);  // MT(521)
  scalar_cfg.sector_variances = {1.39f, 1.39f};
  scalar_cfg.outputs_per_sector = 128;
  scalar_cfg.break_id = 0;
  scalar_cfg.work_item_id = 1;
  scalar_cfg.seed = 5;
  scalar_cfg.stream_strategy = core::StreamStrategy::kJumpAhead;
  scalar_cfg.batch_iterations = 1;

  core::GammaWorkItemConfig batched_cfg = scalar_cfg;
  batched_cfg.batch_iterations = 512;

  const WorkItemRun a = run_work_item(scalar_cfg);
  const WorkItemRun b = run_work_item(batched_cfg);
  ASSERT_EQ(a.flags, b.flags);
  ASSERT_EQ(a.values, b.values);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(BatchedWorkItem, MatchesScalarPathCounterBased) {
  // The Philox-backed strategy must preserve the same batching
  // invariant as the MT strategies: the tape-batched path replays the
  // scalar Listing 2 control flow bit-for-bit.
  for (const auto id : {rng::ConfigId::kConfig2, rng::ConfigId::kConfig3}) {
    core::GammaWorkItemConfig scalar_cfg;
    scalar_cfg.app = rng::config(id);
    scalar_cfg.sector_variances = {1.39f, 0.5f, 2.0f};
    scalar_cfg.outputs_per_sector = 96;
    scalar_cfg.break_id = 1;
    scalar_cfg.work_item_id = 2;
    scalar_cfg.seed = 77;
    scalar_cfg.stream_strategy = core::StreamStrategy::kCounterBased;
    scalar_cfg.batch_iterations = 1;

    core::GammaWorkItemConfig batched_cfg = scalar_cfg;
    batched_cfg.batch_iterations = 2048;

    const WorkItemRun a = run_work_item(scalar_cfg);
    const WorkItemRun b = run_work_item(batched_cfg);
    ASSERT_EQ(a.flags, b.flags) << "config " << static_cast<int>(id);
    ASSERT_EQ(a.values, b.values) << "config " << static_cast<int>(id);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.outputs, b.outputs);
  }
}

TEST(BatchedWorkItem, CounterBasedWorkItemsAreDecorrelated) {
  // Distinct work-item ids own disjoint counter windows; their outputs
  // must differ (structural non-overlap, not just statistically).
  core::GammaWorkItemConfig cfg;
  cfg.app = rng::config(rng::ConfigId::kConfig2);
  cfg.sector_variances = {1.39f};
  cfg.outputs_per_sector = 64;
  cfg.break_id = 0;
  cfg.seed = 5;
  cfg.stream_strategy = core::StreamStrategy::kCounterBased;
  cfg.work_item_id = 0;
  const WorkItemRun a = run_work_item(cfg);
  cfg.work_item_id = 1;
  const WorkItemRun b = run_work_item(cfg);
  EXPECT_NE(a.values, b.values);
}

}  // namespace
}  // namespace dwi
