#include "core/gamma_work_item.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/bits.h"
#include "common/block_arena.h"
#include "common/error.h"
#include "rng/erfinv.h"
#include "rng/icdf_bitwise.h"
#include "rng/normal.h"
#include "rng/simd_kernels.h"

namespace dwi::core {

namespace {

/// Accept bits of the two-stage filter, in iteration order: lane i
/// passes when valid[i] and ok[j] are both set, where j counts the
/// valid lanes before i (`ok` is compacted over the valid lanes and
/// holds ok_count flags). Writes the ceil(count / 64) words, zero past
/// `count`, a word at a time: pack 64 flags, then deposit the ok bits
/// onto the valid positions.
void accept_bits(const std::uint8_t* valid, std::size_t count,
                 const std::uint8_t* ok, std::size_t ok_count,
                 std::uint64_t* words) {
  std::size_t j = 0;  // ok flags consumed
  for (std::size_t i = 0; i < count; i += 64) {
    const std::uint64_t v =
        pack_flags(valid + i, std::min<std::size_t>(64, count - i));
    const auto n = static_cast<unsigned>(std::popcount(v));
    const std::uint64_t a =
        pack_flags(ok + j, std::min<std::size_t>(64, ok_count - j)) &
        low_bits(n);
    words[i / 64] = deposit_bits(a, v);
    j += n;
  }
}

std::uint32_t derive_seed(std::uint32_t base, unsigned wid, unsigned stream) {
  // SplitMix-style mixing so work-items and streams decorrelate even
  // with adjacent base seeds.
  std::uint64_t z = (static_cast<std::uint64_t>(base) << 32) ^
                    (static_cast<std::uint64_t>(wid) * 0x9e3779b97f4a7c15ull) ^
                    (static_cast<std::uint64_t>(stream) * 0xbf58476d1ce4e5b9ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::uint32_t>(z >> 32) | 1u;
}

std::array<rng::AdaptedMersenneTwister, 4> twisters(
    const GammaWorkItemConfig& cfg) {
  const auto make = [&cfg](unsigned stream) {
    return rng::AdaptedMersenneTwister(
        cfg.app.mt, derive_seed(cfg.seed, cfg.work_item_id, stream));
  };
  return {make(0), make(1), make(2), make(3)};
}

}  // namespace

GammaWorkItem::GammaWorkItem(const GammaWorkItemConfig& cfg)
    : cfg_(cfg), mt_(twisters(cfg)), counter_(cfg.break_id) {
  DWI_REQUIRE(!cfg.sector_variances.empty(), "need at least one sector");
  DWI_REQUIRE(cfg.outputs_per_sector > 0, "empty sector quota");
  enter_sector(0);
}

void GammaWorkItem::enter_sector(std::size_t sector) {
  sector_ = sector;
  k_ = 0;
  counter_.reset();
  const float v = cfg_.sector_variances[sector];
  gamma_k_ = rng::GammaConstants::from_sector_variance(v);
  // Listing 2: bool alphaFlag = (alpha <= 1.0f);
  alpha_flag_ = gamma_k_.alpha <= 1.0f;
  // limitMax: generous rejection headroom (the stochastic process can
  // exceed the mean attempt count; 4x + slack covers it for all v).
  limit_max_ = cfg_.limit_max != 0
                   ? cfg_.limit_max
                   : cfg_.outputs_per_sector * 4u + 1024u;
}

bool GammaWorkItem::produce(float* value) {
  // Serve the next precomputed MAINLOOP iteration; (re)fill the tape
  // when it runs dry. One tape bit per call preserves the scalar
  // contract exactly: every call while !finished() is one iteration.
  while (tape_pos_ == tape_len_) {
    if (finished_) return false;
    fill_tape();
  }
  ++iterations_;
  const std::size_t i = tape_pos_++;
  if (((tape_bits_[i / 64] >> (i % 64)) & 1) == 0) return false;
  *value = *corrected_values();
  ++tape_value_pos_;
  ++outputs_;
  return true;
}

std::uint64_t GammaWorkItem::produce_word(std::uint64_t want, float* values,
                                          unsigned& ran) {
  std::uint64_t word = 0;
  std::uint64_t got = 0;
  unsigned n = 0;
  while (n < 64 && got < want) {
    if (tape_pos_ == tape_len_) {
      if (finished_) break;
      fill_tape();
      continue;
    }
    // The next up-to-64 - n tape bits, cut after the want-th accept.
    auto take = static_cast<unsigned>(
        std::min<std::size_t>(64 - n, tape_len_ - tape_pos_));
    const std::size_t w = tape_pos_ / 64;
    const unsigned shift = tape_pos_ % 64;
    std::uint64_t bits = tape_bits_[w] >> shift;
    if (shift != 0 && w + 1 < tape_bits_.size()) {
      bits |= tape_bits_[w + 1] << (64 - shift);
    }
    bits &= low_bits(take);
    auto accepts = static_cast<std::uint64_t>(std::popcount(bits));
    if (got + accepts >= want) {
      accepts = want - got;
      take = select_bit(bits, static_cast<unsigned>(accepts - 1)) + 1;
      bits &= low_bits(take);
    }
    if (values != nullptr && accepts != 0) {
      std::copy_n(corrected_values(), accepts, values + got);
    }
    word |= bits << n;
    n += take;
    got += accepts;
    tape_pos_ += take;
    tape_value_pos_ += accepts;
    iterations_ += take;
    outputs_ += accepts;
  }
  ran = n;
  return word;
}

const float* GammaWorkItem::corrected_values() {
  if (tape_uncorrected_) {
    rng::simd::gamma_correct_block(tape_values_.data(), tape_u2_.data(),
                                   tape_values_.size(), gamma_k_);
    tape_uncorrected_ = false;
  }
  return tape_values_.data() + tape_value_pos_;
}

void GammaWorkItem::fill_tape() {
  tape_len_ = 0;
  tape_values_.clear();
  tape_pos_ = 0;
  tape_value_pos_ = 0;
  tape_uncorrected_ = false;

  // ---- MAINLOOP exit checks (Listing 2's for-condition) ---------------
  // Uses the DELAYED counter, so the loop may run breakId+1 extra
  // iterations after the quota is met — the guarded write keeps those
  // iterations output-free.
  while (k_ >= limit_max_ ||
         counter_.delayed_value() >= cfg_.outputs_per_sector) {
    DWI_ASSERT(counter_.value() == cfg_.outputs_per_sector ||
               k_ >= limit_max_);
    if (sector_ + 1 >= cfg_.sector_variances.size()) {
      finished_ = true;
      return;
    }
    enter_sector(sector_ + 1);
  }

  if (cfg_.batch_iterations <= 1) {
    fill_tape_scalar();
  } else {
    fill_tape_batched();
  }
}

void GammaWorkItem::fill_tape_scalar() {
  ++k_;
  counter_.update_registers();

  // ---- Normal RN -------------------------------------------------------
  float n0 = 0.0f;
  bool n0_valid = false;
  switch (cfg_.app.fpga_transform) {
    case rng::NormalTransform::kMarsagliaBray: {
      // Both input twisters advance every iteration (enable = true):
      // the polar method consumes a fresh pair per attempt.
      const auto a = rng::marsaglia_bray_attempt(mt_[0].next(true),
                                                 mt_[1].next(true));
      n0 = a.value;
      n0_valid = a.valid;
      break;
    }
    case rng::NormalTransform::kIcdfBitwise: {
      const auto r = rng::normal_icdf_bitwise(mt_[0].next(true));
      n0 = r.value;
      n0_valid = r.valid;
      break;
    }
    case rng::NormalTransform::kIcdfCuda: {
      n0 = rng::normal_icdf_cuda(mt_[0].next(true));
      n0_valid = true;
      break;
    }
    case rng::NormalTransform::kBoxMuller: {
      n0 = rng::box_muller(mt_[0].next(true), mt_[1].next(true));
      n0_valid = true;
      break;
    }
  }

  // ---- Uniform RN (for rejection): MT1 advances only when the normal
  // stage produced a value (Listing 2: MT1(n0_valid, ...)). -------------
  const float u1 = uint2float_open0(mt_[2].next(n0_valid));

  // ---- Rejection method ------------------------------------------------
  const rng::GammaAttempt g = rng::gamma_attempt(n0, u1, gamma_k_);
  const bool g_rn_ok = n0_valid && g.valid;

  // ---- Uniform RN for correction: MT2 advances only on acceptance. ----
  const float u2 = uint2float_open0(mt_[3].next(g_rn_ok));
  const float g_corrected = rng::gamma_correct(g.value, u2, gamma_k_);

  // ---- Output selection + guarded write --------------------------------
  const float gamma = alpha_flag_ ? g_corrected : g.value;
  const bool emit = g_rn_ok && counter_.value() < cfg_.outputs_per_sector;
  if (emit) {
    counter_.increment();
    tape_values_.push_back(gamma);
  }
  tape_bits_.assign(1, emit ? 1 : 0);
  tape_len_ = 1;
}

void GammaWorkItem::fill_tape_batched() {
  // Same dataflow as fill_tape_scalar, restructured stage-by-stage over
  // a chunk of iterations so every twister advances via generate_block
  // and every transform runs in a tight loop. The enable-gated commits
  // become exact draw counts: MT1 advances once per valid normal, MT2
  // once per accepted candidate — the disabled "peek" re-reads of the
  // scalar path never reach an output, so skipping them is invisible.
  const std::uint32_t quota = cfg_.outputs_per_sector;

  // Chunk bound such that no exit check could fire mid-chunk. While
  // the live counter is below quota the delay registers (past counter
  // values) are too, and the exit needs at least (quota − counter) +
  // breakId + 1 more iterations: the counter gains at most 1 per
  // iteration and the delay line adds breakId+1. Once the counter HAS
  // reached quota the quota value may already be anywhere inside the
  // delay line, so the up-to-breakId+1 tail iterations run one at a
  // time, re-checking the exit after each exactly like the scalar
  // path. k_ may not cross limit_max_ either way.
  const std::uint64_t until_quota =
      counter_.value() < quota
          ? static_cast<std::uint64_t>(quota - counter_.value()) +
                counter_.break_id() + 1
          : 1;
  const std::uint64_t until_limit = limit_max_ - k_;
  const std::size_t chunk = static_cast<std::size_t>(
      std::min({until_quota, until_limit,
                static_cast<std::uint64_t>(cfg_.batch_iterations)}));

  const rng::NormalTransform transform = cfg_.app.fpga_transform;
  const bool two_uniforms = rng::uniforms_per_attempt(transform) == 2;
  common::BlockArena& arena = common::thread_block_arena();

  // ---- Normal RNs, one block ------------------------------------------
  std::uint32_t* ua = arena.u32(0, chunk);
  std::uint32_t* ub = two_uniforms ? arena.u32(1, chunk) : nullptr;
  mt_[0].generate_block(ua, chunk);
  if (two_uniforms) mt_[1].generate_block(ub, chunk);

  float* n0 = arena.f32(0, chunk);
  std::uint8_t* n0_valid = arena.u8(0, chunk);
  rng::normal_attempt_block(transform, ua, ub, chunk, n0, n0_valid);

  // ---- Rejection stage: MT1 commits once per valid normal. The
  // valid normals are compacted so the vectorized Marsaglia-Tsang
  // predicate (rng/simd_kernels.h) runs over a dense block; the
  // guarded write below deposits its accepts back onto iteration
  // order. -------------------------------------------------------------
  float* n0c = arena.f32(1, chunk);
  std::size_t n_valid = 0;
  for (std::size_t i = 0; i < chunk; ++i) {
    n0c[n_valid] = n0[i];
    n_valid += n0_valid[i];
  }
  std::uint32_t* u1 = arena.u32(2, chunk);
  mt_[2].generate_block(u1, n_valid);
  float* g_value = arena.f32(2, chunk);   // compacted: one per valid normal
  std::uint8_t* g_ok = arena.u8(1, chunk);  // compacted accept flags
  rng::simd::gamma_attempt_block(n0c, u1, n_valid, gamma_k_, g_value, g_ok);

  // Compact the accepted candidates in place; count acceptances.
  std::size_t n_accepted = 0;
  for (std::size_t i = 0; i < n_valid; ++i) {
    g_value[n_accepted] = g_value[i];
    n_accepted += g_ok[i];
  }

  // ---- Guarded write: the first quota - counter accepted candidates
  // emit and the rest are dropped (the counter cannot pass quota). The
  // accept bits are built word-wise in iteration order, the dropped
  // ones cleared, and the DelayedCounter state replayed in closed form.
  // Bit-identical to running the Listing 2 guard per iteration. -------
  const auto emitted = static_cast<std::size_t>(std::min<std::uint64_t>(
      n_accepted, quota - counter_.value()));
  const std::size_t words = ceil_div<std::size_t>(chunk, 64);
  tape_bits_.resize(words);
  accept_bits(n0_valid, chunk, g_ok, n_valid, tape_bits_.data());
  if (emitted < n_accepted) {
    std::size_t left = emitted;  // accepts still to keep
    for (std::uint64_t& word : tape_bits_) {
      const auto here = static_cast<std::size_t>(std::popcount(word));
      if (left >= here) {
        left -= here;
      } else if (left == 0) {
        word = 0;
      } else {
        const unsigned last = select_bit(word, static_cast<unsigned>(left - 1));
        word &= low_bits(last + 1);
        left = 0;
      }
    }
  }
  counter_.advance_bulk(tape_bits_.data(), chunk,
                        static_cast<std::uint32_t>(emitted));
  tape_len_ = chunk;
  tape_values_.assign(g_value, g_value + emitted);

  // ---- Correction stage: MT2 commits once per accepted candidate. The
  // correction is only *selected* when alphaFlag is set (Listing 2
  // computes both sides and muxes), and only emitted values are ever
  // read, so their MT2 words are kept and the pow waits for the first
  // read (corrected_values()); everything else is dead datapath. ----
  std::uint32_t* u2 = arena.u32(3, chunk);
  mt_[3].generate_block(u2, n_accepted);
  if (alpha_flag_) {
    tape_u2_.assign(u2, u2 + emitted);
    tape_uncorrected_ = emitted != 0;
  }
  k_ += static_cast<std::uint32_t>(chunk);
}

double GammaWorkItem::rejection_rate() const {
  if (iterations_ == 0) return 0.0;
  return 1.0 -
         static_cast<double>(outputs_) / static_cast<double>(iterations_);
}

std::uint64_t GammaWorkItem::total_quota() const {
  return static_cast<std::uint64_t>(cfg_.outputs_per_sector) *
         cfg_.sector_variances.size();
}

}  // namespace dwi::core
