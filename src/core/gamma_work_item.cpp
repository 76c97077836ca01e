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

/// Advance `mt` by n words, discarding them.
void discard(rng::AdaptedMersenneTwister& mt, std::uint64_t n) {
  std::uint32_t sink[256];
  while (n != 0) {
    const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(n, 256));
    mt.generate_block(sink, take);
    n -= take;
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

/// Set bits of the bit array `words` in [from, to).
std::size_t count_bits(const std::uint64_t* words, std::size_t from,
                       std::size_t to) {
  std::size_t n = 0;
  while (from < to) {
    const unsigned shift = from % 64;
    const auto take =
        static_cast<unsigned>(std::min<std::size_t>(64 - shift, to - from));
    n += static_cast<std::size_t>(
        std::popcount((words[from / 64] >> shift) & low_bits(take)));
    from += take;
  }
  return n;
}

/// Position of the r-th set bit (from 0) of the bit array `words` at or
/// after `from`, or `end` when [from, end) holds no more than r.
std::size_t find_bit(const std::uint64_t* words, std::size_t from,
                     std::size_t end, std::size_t r) {
  std::size_t w = from / 64;
  std::uint64_t word = words[w] & ~low_bits(from % 64);
  while (w * 64 < end) {
    const auto here = static_cast<std::size_t>(std::popcount(word));
    if (r < here) {
      return std::min(end,
                      w * 64 + select_bit(word, static_cast<unsigned>(r)));
    }
    r -= here;
    if (++w * 64 < end) word = words[w];
  }
  return end;
}

/// Clear bits [from, to) of the bit array `words`.
void clear_bits(std::uint64_t* words, std::size_t from, std::size_t to) {
  while (from < to) {
    const unsigned shift = from % 64;
    const auto take =
        static_cast<unsigned>(std::min<std::size_t>(64 - shift, to - from));
    words[from / 64] &= ~(low_bits(take) << shift);
    from += take;
  }
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
  if (tape_raw_) {
    // The fill left every candidate over its valid normals with their
    // emit flags: keep the emitted ones, in order.
    const std::size_t emitted = rng::simd::active_kernels().compact_block(
        tape_values_.data(), tape_ok_.data(), tape_lanes_,
        tape_values_.data());
    tape_values_.resize(emitted);
    // Each α < 1 sector skips the MT2 words owed before it, then draws
    // one per emitted value; the rest stay owed. An α >= 1 sector
    // draws none and adds its accepts to the debt.
    std::uint64_t owed = u2_owed_ - tape_accepted_;
    float* values = tape_values_.data();
    for (const TapeSegment& seg : tape_segments_) {
      if (seg.alpha_flag) {
        discard(mt_[3], owed);
        std::uint32_t* u2 = common::thread_block_arena().u32(3, seg.emitted);
        mt_[3].generate_block(u2, seg.emitted);
        rng::simd::active_kernels().gamma_correct_block(values, u2,
                                                        seg.emitted, seg.k);
        owed = seg.accepted - seg.emitted;
      } else {
        owed += seg.accepted;
      }
      values += seg.emitted;
    }
    u2_owed_ = owed;
    tape_raw_ = false;
  }
  return tape_values_.data() + tape_value_pos_;
}

void GammaWorkItem::fill_tape() {
  tape_len_ = 0;
  tape_pos_ = 0;
  tape_value_pos_ = 0;
  tape_raw_ = false;

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
  tape_values_.clear();
  if (emit) {
    counter_.increment();
    tape_values_.push_back(gamma);
  }
  tape_bits_.assign(1, emit ? 1 : 0);
  tape_len_ = 1;
}

void GammaWorkItem::predicate_lanes(const float* n0, const std::uint32_t* u1,
                                    std::size_t from, std::size_t n_valid) {
  if (from == n_valid) return;
  // The kernel writes whole flag words, so it starts at the word
  // holding `from`; the earlier lanes of that word are restored.
  const auto kept = static_cast<unsigned>(from % 64);
  const std::size_t first = from - kept;
  float values[64];
  std::copy_n(tape_values_.data() + first, kept, values);
  const std::uint64_t flags = tape_ok_[first / 64] & low_bits(kept);
  rng::simd::active_kernels().gamma_attempt_block(
      n0 + first, u1 + first, n_valid - first, gamma_k_,
      tape_values_.data() + first, tape_ok_.data() + first / 64);
  std::copy_n(values, kept, tape_values_.data() + first);
  tape_ok_[first / 64] = (tape_ok_[first / 64] & ~low_bits(kept)) | flags;
}

void GammaWorkItem::fill_tape_batched() {
  // Same dataflow as fill_tape_scalar, run over a chunk of iterations:
  // every twister advances via generate_block, every stage is one mask
  // kernel, and the flags stay bits from the normal stage to the tape.
  // The enable-gated commits become exact draw counts: MT1 advances
  // once per valid normal, MT2 once per accepted candidate — the
  // disabled "peek" re-reads of the scalar path never reach an output,
  // so skipping them is invisible. Only the predicate and the guarded
  // write depend on the sector, so the chunk runs on across SECLOOP
  // exits (MAINLOOP keeps II = 1 through every SECLOOP trip): each
  // sector's exit is found in closed form from the accept flags, and
  // the predicate re-runs past it only when the next sector's
  // constants differ.
  const std::uint32_t quota = cfg_.outputs_per_sector;
  std::size_t chunk = cfg_.batch_iterations;
  if (sector_ + 1 == cfg_.sector_variances.size()) {
    chunk = std::min<std::size_t>(chunk, limit_max_ - k_);
  }

  const rng::NormalTransform transform = cfg_.app.fpga_transform;
  const bool two_uniforms = rng::uniforms_per_attempt(transform) == 2;
  common::BlockArena& arena = common::thread_block_arena();

  // ---- Normal RNs: the valid ones compacted, the valid flags straight
  // into the tape words (one per 64 iterations). ----------------------
  std::uint32_t* ua = arena.u32(0, chunk);
  std::uint32_t* ub = two_uniforms ? arena.u32(1, chunk) : nullptr;
  mt_[0].generate_block(ua, chunk);
  if (two_uniforms) mt_[1].generate_block(ub, chunk);
  tape_bits_.resize(ceil_div<std::size_t>(chunk, 64));
  std::uint64_t* valid = tape_bits_.data();
  float* n0 = arena.f32(0, chunk);
  const std::size_t n_valid =
      rng::normal_attempt_block(transform, ua, ub, chunk, n0, valid);

  // ---- Rejection stage: MT1 commits once per valid normal. The
  // candidates stay on the tape, one per valid normal, with their
  // flags; only a value read compacts them. ---------------------------
  std::uint32_t* u1 = arena.u32(2, n_valid);
  mt_[2].generate_block(u1, n_valid);
  tape_values_.resize(n_valid);
  tape_ok_.resize(ceil_div<std::size_t>(n_valid, 64) + 1);
  predicate_lanes(n0, u1, 0, n_valid);

  // ---- SECLOOP over the chunk: sector by sector, the guarded write
  // keeps the first quota − counter accepts (the counter cannot pass
  // quota) and the loop exits breakId + 1 iterations after the
  // quota-th emit (the delayed counter), or at limitMax. Accepts past
  // the quota stay flags of MT2 commits only. ------------------------
  tape_segments_.clear();
  tape_accepted_ = 0;
  std::size_t begin = 0;  // the sector's first iteration in the chunk
  std::size_t lane = 0;   // and its first valid lane
  for (;;) {
    std::size_t exit = limit_max_ - k_;  // iterations until the exit
    std::size_t emit_end = lane;         // lanes past it cannot emit
    if (counter_.value() < quota) {
      const std::size_t need = quota - counter_.value();
      emit_end = find_bit(tape_ok_.data(), lane, n_valid, need - 1);
      if (emit_end < n_valid) {
        const std::size_t last =
            find_bit(valid, begin, chunk, emit_end - lane) - begin;
        exit = std::min<std::size_t>(exit, last + counter_.break_id() + 2);
        ++emit_end;
      }
    } else {
      exit = std::min<std::size_t>(exit, counter_.iterations_until(quota));
    }
    const std::size_t end = std::min(chunk, begin + exit);
    const std::size_t lane_end = lane + count_bits(valid, begin, end);
    TapeSegment seg{gamma_k_, alpha_flag_,
                    count_bits(tape_ok_.data(), lane, lane_end), 0};
    if (emit_end < lane_end) clear_bits(tape_ok_.data(), emit_end, lane_end);
    seg.emitted = count_bits(tape_ok_.data(), lane, lane_end);
    tape_accepted_ += seg.accepted;
    tape_segments_.push_back(seg);
    const bool more = end < chunk && sector_ + 1 < cfg_.sector_variances.size();
    if (!more) {
      // The chunk ends inside this sector or at its exit (the last
      // sector's cuts the chunk): the next fill_tape() sees the state.
      chunk = end;
      tape_lanes_ = lane_end;
      k_ += static_cast<std::uint32_t>(end - begin);
      break;
    }
    enter_sector(sector_ + 1);
    // Equal variance bits give equal constants, so equal flags.
    if (std::bit_cast<std::uint32_t>(cfg_.sector_variances[sector_]) !=
        std::bit_cast<std::uint32_t>(cfg_.sector_variances[sector_ - 1])) {
      predicate_lanes(n0, u1, lane_end, n_valid);
    }
    begin = end;
    lane = lane_end;
  }

  // ---- Guarded write: the emit bits in iteration order are the emit
  // flags deposited onto each word's valid bits, and the last sector's
  // DelayedCounter state is replayed in closed form. Bit-identical to
  // running the Listing 2 guard per iteration. -------------------------
  tape_bits_.resize(ceil_div<std::size_t>(chunk, 64));
  if (chunk % 64 != 0) tape_bits_.back() &= low_bits(chunk % 64);
  std::size_t j = 0;  // emit flags consumed
  for (std::uint64_t& word : tape_bits_) {
    const auto n = static_cast<unsigned>(std::popcount(word));
    std::uint64_t ok = tape_ok_[j / 64] >> (j % 64);
    if (j % 64 != 0) ok |= tape_ok_[j / 64 + 1] << (64 - j % 64);
    word = deposit_bits(ok & low_bits(n), word);
    j += n;
  }
  counter_.advance_bulk(tape_bits_.data(), begin, chunk - begin,
                        static_cast<std::uint32_t>(
                            tape_segments_.back().emitted));
  tape_len_ = chunk;
  tape_raw_ = true;

  // ---- Correction stage: MT2 commits once per accepted candidate. The
  // correction is only *selected* when alphaFlag is set (Listing 2
  // computes both sides and muxes), and only emitted values are ever
  // read, so MT2's words are owed until a value is read
  // (corrected_values()); a caller that only asks for accept bits
  // never draws them. ----------------------------------------------------
  u2_owed_ += tape_accepted_;
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
