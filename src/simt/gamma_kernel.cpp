#include "simt/gamma_kernel.h"

#include <cmath>
#include <optional>

#include "common/bits.h"
#include "common/block_arena.h"
#include "common/error.h"
#include "rng/erfinv.h"
#include "rng/fastmath.h"
#include "rng/icdf_bitwise.h"
#include "rng/normal.h"
#include "rng/simd_kernels.h"

namespace dwi::simt {

namespace {

/// Per-lane private state: the work-item's uniform streams (the
/// paper's distinct-seed twisters) and progress.
struct LaneState {
  // MB uses two input twisters (mt0a/mt0b per [18]); ICDF uses mt0a.
  // mt0b is only constructed (and seeded) for two-uniform transforms —
  // its stream is never consumed otherwise, so the other twisters'
  // sequences are unaffected.
  rng::MersenneTwister mt0a;
  std::optional<rng::MersenneTwister> mt0b;
  rng::MersenneTwister mt1;   // rejection uniform
  rng::MersenneTwister mt2;   // correction uniform

  std::uint32_t produced = 0;

  // Per-iteration scratch, written by one region and read by the next.
  float n0 = 0.0f;
  bool n0_valid = false;
  float candidate = 0.0f;
  float v = 0.0f;
  float u1 = 0.0f;
  bool squeeze_pass = false;
  bool accepted = false;

  LaneState(const rng::MtParams& params, std::uint32_t seed,
            bool two_uniforms)
      : mt0a(params, seed),
        mt1(params, seed ^ 0x9e3779b9u),
        mt2(params, seed ^ 0x6c078965u) {
    if (two_uniforms) mt0b.emplace(params, seed ^ 0x5851f42du);
  }
};

}  // namespace

GammaKernelResult run_gamma_partition(
    const PlatformModel& platform, const rng::AppConfig& config,
    rng::NormalTransform transform, float sector_variance,
    std::uint32_t quota_per_lane, std::uint32_t seed,
    LockstepPartition::RegionObserver observer) {
  DWI_REQUIRE(quota_per_lane > 0, "quota must be positive");
  const unsigned width = platform.width;
  LockstepPartition part(width, platform.costs,
                         platform.divergence_scalarization);
  if (observer) part.set_observer(std::move(observer));

  const auto k = rng::GammaConstants::from_sector_variance(sector_variance);
  const bool uses_mb = transform == rng::NormalTransform::kMarsagliaBray;
  const OpBundle mt_step =
      platform.mt_step_bundle(config.state_bytes_per_work_item());

  // Region bundles assembled once. The bit-level ICDF cannot be fully
  // vectorized on CPU/PHI (§II-D3): its op counts are multiplied by the
  // platform's serialization factor to model per-lane scalar execution.
  OpBundle icdf_bitwise = bundles::icdf_bitwise_fixed_arch();
  {
    OpBundle scaled;
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
      scaled.counts[i] = static_cast<std::uint32_t>(
          std::lround(static_cast<double>(icdf_bitwise.counts[i]) *
                      platform.bitwise_icdf_serial_factor));
    }
    icdf_bitwise = scaled;
  }
  const OpBundle normal_gen_bundle =
      uses_mb ? mt_step + mt_step + bundles::marsaglia_bray_setup()
      : transform == rng::NormalTransform::kIcdfCuda
          ? mt_step + bundles::icdf_cuda()
          : mt_step + icdf_bitwise;
  const OpBundle mb_finish_bundle = bundles::marsaglia_bray_finish();
  const OpBundle rejection_bundle = mt_step + bundles::gamma_candidate();
  const OpBundle exact_bundle = bundles::gamma_exact_test();
  const OpBundle correct_bundle = k.boosted
                                      ? mt_step + bundles::gamma_correction() +
                                            bundles::output_store()
                                      : bundles::output_store();
  const OpBundle loop_bundle = bundles::loop_control();

  const bool two_uniforms = rng::uniforms_per_attempt(transform) == 2;
  std::vector<LaneState> lanes;
  lanes.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    lanes.emplace_back(config.mt, seed * 2654435761u + i * 40503u + 1u,
                       two_uniforms);
  }

  GammaKernelResult result;
  result.outputs.reserve(static_cast<std::size_t>(width) * quota_per_lane);

  auto lane_bit = [](unsigned lane) { return Mask{1} << lane; };

  // Per-bundle issue-slot costs are loop-invariant; fold the op-class
  // dot products once instead of on every region call.
  const double loop_cost = part.bundle_cost(loop_bundle);
  const double normal_gen_cost = part.bundle_cost(normal_gen_bundle);
  const double mb_finish_cost = part.bundle_cost(mb_finish_bundle);
  const double rejection_cost = part.bundle_cost(rejection_bundle);
  const double exact_cost = part.bundle_cost(exact_bundle);
  const double correct_cost = part.bundle_cost(correct_bundle);

  // Scratch for the hoisted block stages, sized so every block-kernel
  // call can be padded up to a multiple of the 8-lane SIMD group with
  // benign inputs (padded results are never read back); the pad keeps
  // small active sets on the vector path instead of the scalar tail.
  common::BlockArena& arena = common::thread_block_arena();
  const std::size_t cap = static_cast<std::size_t>(width) + 8;
  std::uint32_t* ua = arena.u32(0, cap);
  std::uint32_t* ub = arena.u32(1, cap);
  std::uint32_t* u2 = arena.u32(2, cap);
  float* n_value = arena.f32(0, cap);
  float* n_aux = arena.f32(1, cap);
  float* fin_n0 = arena.f32(2, cap);
  float* fin_s = arena.f32(3, cap);
  float* gbuf = arena.f32(4, cap);
  std::uint8_t* n_ok = arena.u8(0, cap);
  const auto pad8 = [](std::size_t cnt) { return (cnt + 7) & ~std::size_t{7}; };

  Mask alive = part.full_mask();
  while (alive != 0) {
    ++result.iterations;
    part.charge(alive, part.full_mask(), loop_bundle, loop_cost);

    // --- normal generation (all alive lanes) ----------------------------
    // The per-lane transform dispatch is hoisted out of the region:
    // uniforms are pre-drawn in lane order (each lane owns its
    // twisters, so this is stream-identical to drawing inside the
    // callback, which the executor also runs in ascending lane order)
    // and the transform runs as one dense batch over the alive lanes.
    // Marsaglia-Bray keeps its split shape — the normal-gen region
    // computes only the polar setup; sqrt/log live in the divergent
    // finish region below — so it batches its setup arithmetic here
    // instead of going through rng::normal_attempt_block.
    Mask normal_valid = 0;
    {
      std::size_t cnt = 0;
      for (Mask m = alive; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
        ua[cnt] = lanes[i].mt0a.next();
        if (two_uniforms) ub[cnt] = lanes[i].mt0b->next();
        ++cnt;
      }
      if (uses_mb) {
        for (std::size_t j = 0; j < cnt; ++j) {
          const float v1 = 2.0f * uint2float_open0(ua[j]) - 1.0f;
          const float v2 = 2.0f * uint2float_open0(ub[j]) - 1.0f;
          const float s = v1 * v1 + v2 * v2;
          n_value[j] = v1;
          n_aux[j] = s;
          n_ok[j] = (s < 1.0f && s > 0.0f) ? 1 : 0;
        }
      } else {
        std::size_t padded = cnt;
        if (transform == rng::NormalTransform::kIcdfCuda) {
          // Pad to a full SIMD group; extra lanes compute a benign
          // icdf(~0.5) that the region callback never reads.
          for (padded = pad8(cnt); cnt < padded;) ua[cnt++] = 0x80000000u;
        }
        rng::normal_attempt_block(transform, ua, ub, padded, n_value, n_ok);
      }
      std::size_t j = 0;
      part.region(alive, alive, normal_gen_bundle, normal_gen_cost,
                  [&](unsigned i) {
        LaneState& l = lanes[i];
        ++result.attempts;
        l.n0 = n_value[j];
        l.n0_valid = n_ok[j] != 0;
        if (uses_mb) l.v = n_aux[j];
        ++j;
        if (l.n0_valid) normal_valid |= lane_bit(i);
      });
    }

    // --- Marsaglia-Bray finish (divergent: only accepted lanes) ---------
    // log/sqrt are the region's whole cost; batch them over the valid
    // lanes (compacted in ascending lane order, matching the executor's
    // callback order) and have the callback only write results back.
    if (uses_mb) {
      std::size_t cnt = 0;
      for (Mask m = normal_valid; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
        fin_n0[cnt] = lanes[i].n0;
        fin_s[cnt] = lanes[i].v;
        ++cnt;
      }
      for (std::size_t p = pad8(cnt); cnt < p; ++cnt) {
        fin_n0[cnt] = 0.0f;
        fin_s[cnt] = 0.5f;
      }
      rng::simd::mb_finish_block(fin_n0, fin_s, cnt);
      std::size_t j = 0;
      part.region(normal_valid, alive, mb_finish_bundle, mb_finish_cost,
                  [&](unsigned i) { lanes[i].n0 = fin_n0[j++]; });
    }

    // --- rejection stage (divergent when the transform rejects) ---------
    Mask candidate_ok = 0;
    part.region(normal_valid, alive, rejection_bundle, rejection_cost,
                [&](unsigned i) {
      LaneState& l = lanes[i];
      l.u1 = uint2float_open0(l.mt1.next());
      const float t = 1.0f + k.c * l.n0;
      if (t <= 0.0f) {
        l.squeeze_pass = false;
        l.accepted = false;
        return;
      }
      l.v = t * t * t;
      const float x2 = l.n0 * l.n0;
      l.squeeze_pass = l.u1 < 1.0f - 0.0331f * x2 * x2;
      l.accepted = l.squeeze_pass;
      candidate_ok |= lane_bit(i);
    });

    // --- exact log test for squeeze failures (divergent) ----------------
    Mask need_exact = 0;
    for (Mask m = candidate_ok; m != 0; m &= m - 1) {
      const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
      if (!lanes[i].squeeze_pass) need_exact |= lane_bit(i);
    }
    part.region(need_exact, alive, exact_bundle, exact_cost,
                [&](unsigned i) {
      LaneState& l = lanes[i];
      const float x2 = l.n0 * l.n0;
      l.accepted = rng::fast_logf(l.u1) <
                   0.5f * x2 + k.d * (1.0f - l.v + rng::fast_logf(l.v));
    });

    // --- correction + store (divergent: only accepted lanes) ------------
    Mask accepted_mask = 0;
    for (Mask m = candidate_ok; m != 0; m &= m - 1) {
      const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
      if (lanes[i].accepted && lanes[i].produced < quota_per_lane) {
        accepted_mask |= lane_bit(i);
      }
    }
    // The pow-based correction dominates this region; draw the u2
    // uniforms in lane order and run one dense gamma_correct_block over
    // the accepted lanes, leaving only the ordered stores in the
    // callback.
    {
      std::size_t cnt = 0;
      for (Mask m = accepted_mask; m != 0; m &= m - 1) {
        const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
        gbuf[cnt] = k.d * lanes[i].v * k.scale;
        if (k.boosted) u2[cnt] = lanes[i].mt2.next();
        ++cnt;
      }
      if (k.boosted) {
        const std::size_t real = cnt;
        for (std::size_t p = pad8(cnt); cnt < p; ++cnt) {
          gbuf[cnt] = 1.0f;
          u2[cnt] = 0x80000000u;
        }
        rng::simd::gamma_correct_block(gbuf, u2, cnt, k);
        cnt = real;
      }
      std::size_t j = 0;
      part.region(accepted_mask, alive, correct_bundle, correct_cost,
                  [&](unsigned i) {
        result.outputs.push_back(gbuf[j++]);
        ++lanes[i].produced;
        ++result.accepted;
      });
    }

    // --- loop exit: a lane retires when its quota is met -----------------
    Mask next_alive = 0;
    for (Mask m = alive; m != 0; m &= m - 1) {
      const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
      if (lanes[i].produced < quota_per_lane) next_alive |= lane_bit(i);
    }
    alive = next_alive;
  }

  result.stats = part.stats();
  return result;
}

double gamma_kernel_init_slots(const PlatformModel& platform,
                               const rng::AppConfig& config) {
  // Knuth seeding: one multiply + add + xor/shift per state word, per
  // twister (§IV-B makes this visible at large global sizes, Fig 5b).
  OpBundle init;
  init.add(OpClass::kIntAlu, 4 * config.mt.n * config.num_twisters());
  return platform.costs.cost(init);
}

}  // namespace dwi::simt
