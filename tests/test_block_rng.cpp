// Block-vs-scalar equivalence suites for the hot-path overhaul: the
// block-generated RNG fast path and the tape-batched rejection
// pipeline must be bit-identical to their scalar reference
// formulations — these tests pin that contract on every layer, down to
// the 64-initiation accept words the KernelSim prerun reads, and the
// block MT19937-64 against std::mt19937_64. (The
// event-driven KernelSim has its own oracle suite,
// tests/test_kernel_sim_engine.cpp.)
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "core/gamma_work_item.h"
#include "fpga/kernel_sim.h"
#include "rng/configs.h"
#include "rng/gamma.h"
#include "rng/jump.h"
#include "rng/mersenne_twister.h"
#include "rng/mt19937_64.h"
#include "rng/normal.h"
#include "rng/philox.h"

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

TEST(BlockRng, Mt521BulkPathMatchesNextAtEveryLength) {
  // Every length from 1 to 3n + 9, from several offsets into the
  // buffered block: the bulk kernel's whole-block runs, its 8-word
  // steps and part steps, and the refilled tail all meet next().
  const rng::MtParams params = rng::mt521_params();
  std::vector<std::uint32_t> buf;
  for (std::size_t count = 1; count <= 3 * params.n + 9; ++count) {
    for (unsigned lead = 0; lead < params.n; lead += 4) {
      rng::MersenneTwister scalar(params, 77u);
      rng::MersenneTwister blocked(params, 77u);
      for (unsigned i = 0; i < lead; ++i) {
        ASSERT_EQ(scalar.next(), blocked.next());
      }
      buf.assign(count, 0);
      blocked.generate_block(buf.data(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(scalar.next(), buf[i])
            << "count " << count << " lead " << lead << " pos " << i;
      }
      for (int i = 0; i < 40; ++i) ASSERT_EQ(scalar.next(), blocked.next());
    }
  }
}

TEST(BlockRng, Mt521BulkPathInterleavedWithNextAndPeeks) {
  // Random runs of generate_block, next() and disabled peeks against
  // one plain next() sequence, on a seeded twister, one built from a
  // raw state and one re-seeded through the seed cache.
  const rng::MtParams params = rng::mt521_params();
  std::vector<std::uint32_t> raw(params.n);
  rng::Philox(3u, 0).generate_block(raw.data(), raw.size());
  rng::MersenneTwister warm(params, 4242u);  // puts 4242 in the cache
  std::uint32_t sink[50];
  warm.generate_block(sink, 50);
  warm.seed(4242u);
  struct Case {
    const char* name;
    rng::MersenneTwister ref;
    rng::MersenneTwister blocked;
  };
  Case cases[] = {
      {"seeded", rng::MersenneTwister(params, 9u),
       rng::MersenneTwister(params, 9u)},
      {"raw state", rng::MersenneTwister(params, raw),
       rng::MersenneTwister(params, raw)},
      {"seed cache", rng::MersenneTwister(params, 4242u), warm},
  };
  std::mt19937_64 pick(5);
  std::vector<std::uint32_t> buf;
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (int op = 0; op < 400; ++op) {
      if (pick() % 3 == 0) {
        ASSERT_EQ(c.blocked.next(), c.ref.next()) << "op " << op;
      } else {
        const std::size_t count = 1 + pick() % (3 * params.n + 9);
        buf.assign(count, 0);
        c.blocked.generate_block(buf.data(), count);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(buf[i], c.ref.next()) << "op " << op << " pos " << i;
        }
      }
    }
  }

  // The enable-gated twister: peeks between bulk runs change nothing.
  rng::AdaptedMersenneTwister gated(params, 9u);
  rng::MersenneTwister ref(params, 9u);
  for (int op = 0; op < 400; ++op) {
    const std::size_t count = 1 + pick() % (3 * params.n + 9);
    buf.assign(count, 0);
    gated.generate_block(buf.data(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(buf[i], ref.next()) << "op " << op << " pos " << i;
    }
    const std::uint32_t peek = gated.next(false);
    ASSERT_EQ(peek, gated.next(false));
    if (pick() % 2 == 0) {
      ASSERT_EQ(gated.next(true), ref.next());
    }
  }
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
// rng::Mt19937_64 == std::mt19937_64, word for word
// ---------------------------------------------------------------------

TEST(BlockRng, Mt19937_64MatchesStd) {
  // Single-word, block and peek()/advance() reads interleaved, with
  // sizes that start, straddle and end on the 312-word refill
  // boundary; 2180 words cross six refills.
  const std::size_t runs[] = {1, 311, 1, 312, 313, 5, 624, 1, 100, 312, 200};
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        ~std::uint64_t{0}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 oracle(seed);
    rng::Mt19937_64 engine(seed);
    std::vector<std::uint64_t> buf;
    std::size_t pos = 0;
    for (std::size_t r = 0; r < std::size(runs); ++r) {
      if (r % 3 == 0) {
        for (std::size_t i = 0; i < runs[r]; ++i, ++pos) {
          ASSERT_EQ(engine(), oracle()) << "word " << pos;
        }
      } else if (r % 3 == 2) {
        // In place: peek() serves nothing until advance() does.
        for (std::size_t left = runs[r]; left > 0;) {
          const std::span<const std::uint64_t> words = engine.peek();
          ASSERT_FALSE(words.empty());
          ASSERT_EQ(engine.peek().data(), words.data());
          const std::size_t take = std::min(left, words.size());
          for (std::size_t i = 0; i < take; ++i, ++pos) {
            ASSERT_EQ(words[i], oracle()) << "word " << pos << " (peek)";
          }
          engine.advance(take);
          left -= take;
        }
      } else {
        buf.assign(runs[r], 0);
        engine.generate_block(buf.data(), buf.size());
        for (std::size_t i = 0; i < runs[r]; ++i, ++pos) {
          ASSERT_EQ(buf[i], oracle()) << "word " << pos << " (block)";
        }
      }
    }
    ASSERT_GE(pos, 3 * rng::Mt19937_64::kStateWords);
  }
}

/// A one-word URBG: what std::generate_canonical<double, 53> makes of
/// exactly this 64-bit draw.
struct OneWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

TEST(BlockRng, CanonicalDoubleMatchesConversionAndGenerateCanonical) {
  constexpr std::uint64_t p53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t p63 = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> words = {
      0, 1, p53 - 1, p53, p53 + 1, p53 + 3, p63 - 1, p63, ~std::uint64_t{0},
      // Round-to-even ties at 2^63 and just below 2^64 (ulp 2^11): the
      // last one rounds up to 2^64, which clamps below 1.
      p63 + (1u << 10), p63 + 3 * (1u << 10), ~std::uint64_t{0} - (1u << 10) + 1,
      ~std::uint64_t{0} - (1u << 10), ~std::uint64_t{0} - 3 * (1u << 10) + 1};
  std::mt19937_64 random_words(20261017);
  for (int i = 0; i < 100000; ++i) words.push_back(random_words());
  for (const std::uint64_t w : words) {
    SCOPED_TRACE("w=" + std::to_string(w));
    const double via_halves =
        static_cast<double>(static_cast<std::uint32_t>(w >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<std::uint32_t>(w));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(via_halves),
              std::bit_cast<std::uint64_t>(static_cast<double>(w)));
    OneWord urbg{w};
    const double expected = std::generate_canonical<double, 53>(urbg);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rng::canonical_double(w)),
              std::bit_cast<std::uint64_t>(expected));
    ASSERT_LT(rng::canonical_double(w), 1.0);
  }
}

// ---------------------------------------------------------------------
// Every GammaSampler uniform source == per-draw next(), draw-for-draw
// ---------------------------------------------------------------------

/// Marsaglia-Tsang written out against per-draw next(), independent of
/// GammaSampler: the variates, attempts and acceptances every uniform
/// source of the sampler must reproduce.
struct GammaOracle {
  std::vector<float> values;
  std::uint64_t attempts = 0;
  std::uint64_t accepted = 0;
};

template <typename Gen>
GammaOracle gamma_oracle(const rng::GammaConstants& k,
                         rng::NormalTransform transform, Gen gen,
                         std::size_t count) {
  GammaOracle o;
  while (o.values.size() < count) {
    ++o.attempts;
    const std::uint32_t ua = gen.next();
    const std::uint32_t ub =
        rng::uniforms_per_attempt(transform) == 2 ? gen.next() : 0;
    const rng::NormalAttempt n = rng::normal_attempt(transform, ua, ub);
    if (!n.valid) continue;
    const rng::GammaAttempt g =
        rng::gamma_attempt(n.value, uint2float_open0(gen.next()), k);
    if (!g.valid) continue;
    ++o.accepted;
    o.values.push_back(
        k.boosted ? rng::gamma_correct(g.value, uint2float_open0(gen.next()), k)
                  : g.value);
  }
  return o;
}

TEST(BlockRng, SamplerBlockMatchesScalar) {
  // sample() with a std::function and with a lambda, sample_block's
  // buffered MT reader, and a BlockWordReader<Philox> that owns its
  // stream and is resumed across calls, against per-draw next(): all
  // four transforms, α below and above 1, counts around the reader's
  // 1024-word block.
  for (const auto transform :
       {rng::NormalTransform::kMarsagliaBray,
        rng::NormalTransform::kIcdfBitwise, rng::NormalTransform::kIcdfCuda,
        rng::NormalTransform::kBoxMuller}) {
    for (const float variance : {1.39f, 0.5f}) {
      const auto k = rng::GammaConstants::from_sector_variance(variance);
      ASSERT_EQ(k.boosted, variance > 1.0f);
      for (const std::size_t count : {1u, 1023u, 1024u, 1025u, 5000u}) {
        SCOPED_TRACE(std::string(rng::to_string(transform)) + " variance " +
                     std::to_string(variance) + " count " +
                     std::to_string(count));
        const rng::MersenneTwister mt(rng::mt19937_params(), 321u);
        const rng::Philox px(99u, 4);
        const GammaOracle want = gamma_oracle(k, transform, mt, count);
        const GammaOracle want_px = gamma_oracle(k, transform, px, count);
        const auto expect_run = [&](const std::vector<float>& got,
                                    const rng::GammaSampler& s,
                                    const GammaOracle& o, const char* what) {
          EXPECT_EQ(got, o.values) << what;
          EXPECT_EQ(s.attempts(), o.attempts) << what;
          EXPECT_EQ(s.accepted(), o.accepted) << what;
        };

        {
          rng::GammaSampler s(k, transform);
          rng::MersenneTwister gen = mt;
          const std::function<std::uint32_t()> next = [&] {
            return gen.next();
          };
          std::vector<float> got(count);
          for (float& v : got) v = s.sample(next);
          expect_run(got, s, want, "std::function");
        }
        {
          rng::GammaSampler s(k, transform);
          rng::MersenneTwister gen = mt;
          std::vector<float> got(count);
          for (float& v : got) v = s.sample([&] { return gen.next(); });
          expect_run(got, s, want, "lambda");
        }
        {
          rng::GammaSampler s(k, transform);
          rng::MersenneTwister gen = mt;
          std::vector<float> got(count);
          s.sample_block(gen, got.data(), count);
          expect_run(got, s, want, "sample_block(MersenneTwister&)");
        }
        {
          // One reader resumed by every sample() call, refills landing
          // mid-call, as a CreditRisk+ sector work-item resumes it wave
          // after wave.
          rng::GammaSampler s(k, transform);
          rng::BlockWordReader<rng::Philox> words(px);
          std::vector<float> got(count);
          for (float& v : got) v = s.sample(words);
          expect_run(got, s, want_px, "BlockWordReader<Philox>");
        }
        if (HasFailure()) return;
      }
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

/// A work-item's SECLOOP shape: the sectors' variances, their quota
/// and limitMax.
struct SectorGeometry {
  const char* name;
  std::vector<float> variances;
  std::uint32_t outputs_per_sector;
  std::uint32_t limit_max = 0;
};

/// `count` sectors cycling through `cycle`'s variances.
std::vector<float> cycled(std::size_t count, std::vector<float> cycle) {
  std::vector<float> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = cycle[i % cycle.size()];
  return v;
}

TEST(BatchedWorkItem, MatchesScalarPathAllConfigs) {
  // All but the first run one prerun fill through many SECLOOP exits.
  const SectorGeometry geometries[] = {
      {"mixed", {1.39f, 0.5f, 2.0f, 1.0f}, 96},
      // The paper geometry of perfbench paper_sim and table3_runtime.
      {"paper", std::vector<float>(240, 1.39f), 640},
      // Every sector exits on its first accept (plus the delay).
      {"one_output", cycled(300, {1.39f, 1.39f, 0.5f}), 1},
      // α = 1/v crosses 1 between neighbouring sectors of one chunk.
      {"alpha_across_one", cycled(60, {0.5f, 1.39f, 0.8f, 2.0f, 1.0f, 0.72f}),
       40},
      // limitMax fires before most quotas, mid-chunk: 300 outputs need
      // about 390 iterations at v = 1.39.
      {"limit_mid_chunk", cycled(20, {1.39f, 0.7f}), 300, 330},
      // limitMax below the quota: every sector is limitMax iterations.
      {"limit_below_quota", cycled(30, {2.0f, 1.39f}), 300, 37},
  };
  for (const SectorGeometry& g : geometries) {
    for (const auto id : {rng::ConfigId::kConfig1, rng::ConfigId::kConfig2,
                          rng::ConfigId::kConfig3, rng::ConfigId::kConfig4}) {
      for (const unsigned break_id : {0u, 2u, 3u}) {
        core::GammaWorkItemConfig scalar_cfg;
        scalar_cfg.app = rng::config(id);
        scalar_cfg.sector_variances = g.variances;
        scalar_cfg.outputs_per_sector = g.outputs_per_sector;
        scalar_cfg.limit_max = g.limit_max;
        scalar_cfg.break_id = break_id;
        scalar_cfg.work_item_id = 3;
        scalar_cfg.seed = 11;
        scalar_cfg.batch_iterations = 1;  // scalar reference path
        const WorkItemRun a = run_work_item(scalar_cfg);

        for (const std::uint32_t batch : {4u, 97u, 2048u}) {
          SCOPED_TRACE(std::string(g.name) + " config " +
                       std::to_string(static_cast<int>(id)) + " break_id " +
                       std::to_string(break_id) + " batch " +
                       std::to_string(batch));
          core::GammaWorkItemConfig batched_cfg = scalar_cfg;
          batched_cfg.batch_iterations = batch;
          const WorkItemRun b = run_work_item(batched_cfg);
          // flags pins every produce() result and, by its length, the
          // call on which finished() turns true.
          ASSERT_EQ(a.flags, b.flags);
          ASSERT_EQ(a.values, b.values);
          EXPECT_EQ(a.iterations, b.iterations);
          EXPECT_EQ(a.outputs, b.outputs);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// produce_word() == 64 packed produce() calls, bit for bit
// ---------------------------------------------------------------------

/// What produce_word(want, ...) must return: up to 64 produce() calls
/// packed into a word, stopping after the want-th accept or once the
/// producer reports finished (the finishing call runs no iteration).
template <typename Producer, typename Finished>
std::uint64_t pack_produce(Producer& p, std::uint64_t want, unsigned& ran,
                           std::vector<float>& values, Finished finished) {
  std::uint64_t word = 0;
  std::uint64_t got = 0;
  unsigned i = 0;
  while (i < 64 && got < want) {
    float v = 0.0f;
    const bool ok = p.produce(&v);
    if (finished(p)) break;
    if (ok) {
      word |= std::uint64_t{1} << i;
      values.push_back(v);
      ++got;
    }
    ++i;
  }
  ran = i;
  return word;
}

/// A want cut: mostly small enough to fire inside a word.
std::uint64_t random_want(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0: return 1 + rng() % 3;
    case 1: return 1 + rng() % 40;
    default: return ~std::uint64_t{0};
  }
}

/// kLate asks for accept bits only over the first kLateRead initiations
/// (more than three 2048-iteration fills), then reads every value, so
/// the first read settles every MT2 word owed until then.
enum class ValueMode { kNever, kAlways, kMixed, kLate };
constexpr std::uint64_t kLateRead = 3 * 2048 + 700;

/// Drive one work-item through produce_word() and a twin through
/// produce(), word by word, and both against the scalar path (eager
/// α-correction, batch_iterations = 1).
void check_word_producer(const core::GammaWorkItemConfig& cfg,
                         const WorkItemRun& ref, ValueMode mode,
                         std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " mode=" +
               std::to_string(static_cast<int>(mode)));
  std::mt19937_64 rng(seed);
  core::GammaWorkItem a(cfg);
  core::GammaWorkItem b(cfg);
  const auto finished = [](const core::GammaWorkItem& w) {
    return w.finished();
  };
  std::vector<std::uint8_t> flags;
  std::size_t out = 0;
  for (std::uint64_t guard = 0;; ++guard) {
    ASSERT_LT(guard, std::uint64_t{1} << 20) << "runaway work-item";
    const std::uint64_t want = random_want(rng);
    const bool read = mode == ValueMode::kAlways ||
                      (mode == ValueMode::kMixed && (rng() & 1) != 0) ||
                      (mode == ValueMode::kLate && a.iterations() >= kLateRead);
    float buf[64];
    unsigned ran_a = 99;
    unsigned ran_b = 0;
    std::vector<float> vb;
    const std::uint64_t wa = a.produce_word(want, read ? buf : nullptr, ran_a);
    const std::uint64_t wb = pack_produce(b, want, ran_b, vb, finished);
    ASSERT_EQ(wa, wb) << "word " << guard << " want " << want;
    ASSERT_EQ(ran_a, ran_b) << "word " << guard;
    ASSERT_EQ(a.iterations(), b.iterations());
    ASSERT_EQ(a.outputs(), b.outputs());
    ASSERT_EQ(a.finished(), b.finished());
    const auto got = static_cast<std::size_t>(std::popcount(wa));
    ASSERT_EQ(got, vb.size());
    ASSERT_LE(out + got, ref.values.size());
    for (std::size_t k = 0; k < got; ++k) {
      // Deferred correction (b, and a when it reads) == eager (ref).
      ASSERT_EQ(std::bit_cast<std::uint32_t>(vb[k]),
                std::bit_cast<std::uint32_t>(ref.values[out + k]))
          << "output " << out + k;
      if (read) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(buf[k]),
                  std::bit_cast<std::uint32_t>(vb[k]))
            << "output " << out + k;
      }
    }
    out += got;
    for (unsigned i = 0; i < ran_a; ++i) {
      flags.push_back(static_cast<std::uint8_t>((wa >> i) & 1));
    }
    if (ran_a < 64 && got < want) {
      ASSERT_TRUE(a.finished()) << "short word before the end";
      break;
    }
  }
  EXPECT_EQ(flags, ref.flags);
  EXPECT_EQ(a.iterations(), ref.iterations);
  EXPECT_EQ(a.outputs(), ref.outputs);
}

TEST(WordProducer, GammaWorkItemMatchesPerCallGrid) {
  // Three long sectors (limitMax 2500 fires on any rejection), and 48
  // short ones with α crossing 1 so that one fill runs through many
  // sector exits (limitMax 60 fires before most of the 48-output
  // quotas, which need about 62 iterations at v = 1.39).
  const struct {
    std::vector<float> variances;
    std::uint32_t outputs_per_sector;
    std::uint32_t limit;
  } geometries[] = {
      {{1.39f, 0.5f, 2.0f}, 2500, 2500},
      {cycled(48, {0.5f, 1.39f, 0.8f, 2.0f}), 48, 60},
  };
  std::uint64_t seed = 1;
  for (const auto& g : geometries) {
    for (const auto id : {rng::ConfigId::kConfig1, rng::ConfigId::kConfig2,
                          rng::ConfigId::kConfig3, rng::ConfigId::kConfig4}) {
      for (const unsigned break_id : {0u, 3u}) {
        for (const std::uint32_t limit_max : {0u, g.limit}) {
          core::GammaWorkItemConfig cfg;
          cfg.app = rng::config(id);
          cfg.sector_variances = g.variances;
          cfg.outputs_per_sector = g.outputs_per_sector;
          cfg.limit_max = limit_max;
          cfg.break_id = break_id;
          cfg.work_item_id = 2;
          cfg.seed = 19;
          cfg.batch_iterations = 1;
          const WorkItemRun ref = run_work_item(cfg);
          for (const std::uint32_t batch : {1u, 2048u}) {
            SCOPED_TRACE("sectors " + std::to_string(g.variances.size()) +
                         " config " + std::to_string(static_cast<int>(id)) +
                         " break_id " + std::to_string(break_id) +
                         " limit_max " + std::to_string(limit_max) +
                         " batch " + std::to_string(batch));
            cfg.batch_iterations = batch;
            for (const auto mode : {ValueMode::kNever, ValueMode::kAlways,
                                    ValueMode::kMixed, ValueMode::kLate}) {
              check_word_producer(cfg, ref, mode, seed++);
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(WordProducer, GammaWorkItemAlphaOnBothSidesOfOne) {
  // Short sectors whose α alternates around 1 (α = 2, 0.72, 1.25, 0.5,
  // 1): fills cross sector boundaries, sectors with α >= 1 leave their
  // MT2 words owed, and a read in a later α < 1 sector skips them.
  std::uint64_t seed = 500;
  for (const auto id : {rng::ConfigId::kConfig2, rng::ConfigId::kConfig3}) {
    core::GammaWorkItemConfig cfg;
    cfg.app = rng::config(id);
    cfg.sector_variances = {0.5f, 1.39f, 0.8f, 2.0f, 1.0f, 1.39f};
    cfg.outputs_per_sector = 1300;
    cfg.break_id = 1;
    cfg.work_item_id = 4;
    cfg.seed = 23;
    cfg.batch_iterations = 1;
    const WorkItemRun ref = run_work_item(cfg);
    cfg.batch_iterations = 2048;
    SCOPED_TRACE("config " + std::to_string(static_cast<int>(id)));
    for (const auto mode : {ValueMode::kMixed, ValueMode::kLate}) {
      check_word_producer(cfg, ref, mode, seed++);
      if (HasFatalFailure()) return;
    }
  }
}

/// A producer with only the per-call interface, so it runs the default
/// ProducerModel::produce_word().
template <typename Inner>
class PerCall final : public fpga::ProducerModel {
 public:
  template <typename... Args>
  explicit PerCall(Args... args) : inner_(args...) {}
  bool produce(float* value) override { return inner_.produce(value); }

 private:
  Inner inner_;
};

/// Native produce_word() of `native`, the default one of `per_call` and
/// packed produce() calls of `twin` agree word for word and value for
/// value. All three start from the same state.
void check_default_and_native(fpga::ProducerModel& native,
                              fpga::ProducerModel& per_call,
                              fpga::ProducerModel& twin, std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  const auto never = [](const fpga::ProducerModel&) { return false; };
  for (int call = 0; call < 2000; ++call) {
    const std::uint64_t want = random_want(rng);
    const bool read = (rng() & 1) != 0;
    float vn[64];
    float vd[64];
    unsigned ran_n = 99;
    unsigned ran_d = 99;
    unsigned ran_t = 0;
    std::vector<float> vt;
    const std::uint64_t wn = native.produce_word(want, read ? vn : nullptr,
                                                 ran_n);
    const std::uint64_t wd =
        per_call.produce_word(want, read ? vd : nullptr, ran_d);
    const std::uint64_t wt = pack_produce(twin, want, ran_t, vt, never);
    ASSERT_EQ(wd, wt) << "call " << call;
    ASSERT_EQ(ran_d, ran_t) << "call " << call;
    ASSERT_EQ(wn, wt) << "call " << call;
    ASSERT_EQ(ran_n, ran_t) << "call " << call;
    if (!read) continue;
    for (std::size_t k = 0; k < vt.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(vd[k]),
                std::bit_cast<std::uint32_t>(vt[k]));
      ASSERT_EQ(std::bit_cast<std::uint32_t>(vn[k]),
                std::bit_cast<std::uint32_t>(vt[k]));
    }
  }
}

TEST(WordProducer, DefaultAndNativeMatchPerCallBernoulli) {
  for (const double acceptance : {0.0, 0.3, 0.766, 1.0}) {
    SCOPED_TRACE("acceptance " + std::to_string(acceptance));
    fpga::BernoulliProducer native(acceptance, 7);
    PerCall<fpga::BernoulliProducer> per_call(acceptance, 7u);
    PerCall<fpga::BernoulliProducer> twin(acceptance, 7u);
    check_default_and_native(native, per_call, twin, 100);
    if (HasFatalFailure()) return;
  }
}

TEST(WordProducer, DefaultAndNativeMatchPerCallDummy) {
  fpga::DummyProducer native;
  PerCall<fpga::DummyProducer> per_call;
  PerCall<fpga::DummyProducer> twin;
  check_default_and_native(native, per_call, twin, 200);
}

}  // namespace
}  // namespace dwi
