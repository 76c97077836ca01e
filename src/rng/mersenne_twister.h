// Mersenne-Twister uniform PRNG family (Matsumoto & Nishimura [15]).
//
// The paper instantiates two members (Table I):
//   * MT(19937): the classic generator, period 2^19937-1, 624 states;
//   * MT(521):   a Dynamic-Creation (DCMT, [18]) generator with period
//                2^521-1 and only 17 state words, chosen on the FPGA to
//                cut BRAM when three independent twisters per work-item
//                are needed.
//
// This implementation is a single engine parameterized by the standard
// MT tuple (w=32, n, m, r, a, u, d, s, b, t, c, l). MT19937 uses the
// published constants and is bit-exact against std::mt19937 (tested).
// For MT(521) the authors used parameters produced by the DCMT tool,
// which are not published in the paper and the tool is unavailable
// offline; we ship a representative parameter set with the correct
// state geometry (n=17, r=23, so n·w−r = 521) and validate its output
// statistically (equidistribution, KS, chi-square) instead of by
// period proof. See DESIGN.md §2 for this substitution.
//
// Hot-path structure: the generator regenerates and tempers a whole
// n-word block at a time (refill()) and serves individual draws from
// that buffer, so next() is a bounds check plus an array read, and
// generate_block() can hand out long runs with two memcpy-sized loops
// per n outputs. The twist runs modulo-free in three segments (see
// refill() in the .cpp); the output sequence is bit-identical to the
// classic one-word-at-a-time formulation — tests/test_block_rng.cpp
// pins block-vs-scalar equality across block boundaries and after
// jump-ahead.
//
// AdaptedMersenneTwister implements the paper's Listing 3: the
// generator is free-running inside an II=1 pipeline and an external
// `enable` flag controls whether the state actually advances — the key
// trick that lets downstream rejection logic "stop" an upstream
// twister without stalling the pipeline or discarding numbers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace dwi::rng {

/// The full 32-bit Mersenne-Twister parameter tuple.
struct MtParams {
  unsigned n;         ///< state size in 32-bit words
  unsigned m;         ///< middle word offset
  unsigned r;         ///< separation point of one word
  std::uint32_t a;    ///< twist matrix coefficient
  unsigned u;         ///< tempering shift u
  std::uint32_t d;    ///< tempering mask d
  unsigned s;         ///< tempering shift s
  std::uint32_t b;    ///< tempering mask b
  unsigned t;         ///< tempering shift t
  std::uint32_t c;    ///< tempering mask c
  unsigned l;         ///< tempering shift l
  std::uint32_t f;    ///< initialization multiplier

  /// Period exponent n·32 − r (19937 or 521 for the paper's configs).
  unsigned period_exponent() const { return n * 32 - r; }
};

/// Published MT19937 parameters.
MtParams mt19937_params();

/// Representative DCMT-style parameters with period exponent 521
/// (n = 17, r = 23). See the file comment for the substitution note.
MtParams mt521_params();

/// Classic sequential Mersenne-Twister.
class MersenneTwister {
 public:
  explicit MersenneTwister(const MtParams& params, std::uint32_t seed = 5489u);

  /// Construct from a raw n-word state (as produced by jump-ahead,
  /// rng/jump.h): the next output is temper(x_n) of the recurrence
  /// continued from this state. The low r bits of word 0 are ignored.
  MersenneTwister(const MtParams& params,
                  const std::vector<std::uint32_t>& raw_state);

  /// Re-seed with the standard Knuth initializer.
  void seed(std::uint32_t s);

  /// Next tempered 32-bit output; state advances by one word. Served
  /// from the tempered block buffer — one refill() per n draws.
  std::uint32_t next() {
    if (index_ >= params_.n) refill();
    return block_[index_++];
  }

  /// Block fast path: fill out[0..count) with exactly the next `count`
  /// outputs of the next() sequence (same state advance, same values).
  /// Whole-buffer copies amortize the twist+temper over n words and
  /// eliminate the per-draw call overhead in batched consumers.
  void generate_block(std::uint32_t* out, std::size_t count);

  const MtParams& params() const { return params_; }
  unsigned state_words() const { return params_.n; }

 private:
  friend class AdaptedMersenneTwister;

  /// One in-place twist pass over the whole state array (no temper).
  void twist();

  /// Twist the whole state array and temper it into block_; resets
  /// index_ to 0. Bit-identical to n successive classic twist steps.
  void refill();

  MtParams params_;
  std::vector<std::uint32_t> state_;  ///< raw recurrence state
  std::vector<std::uint32_t> block_;  ///< tempered outputs of state_
  unsigned index_;
  std::uint32_t lower_mask_;
  std::uint32_t upper_mask_;
};

/// Listing 3: enable-gated Mersenne-Twister for fully pipelined designs.
///
/// next(enable) always *computes* the output for the current state word
/// (the hardware datapath runs every cycle), but the state update and
/// index increment only commit when `enable` is true. Filtering the
/// call sequence to enabled calls therefore yields exactly the plain
/// MT sequence — the invariant that prevents the distribution
/// distortion described in §II-E, and the property our tests check.
class AdaptedMersenneTwister {
 public:
  explicit AdaptedMersenneTwister(const MtParams& params,
                                  std::uint32_t seed = 5489u);

  void seed(std::uint32_t s);

  /// Compute the current output; commit the state update iff `enable`.
  /// The inner generator's block buffer already holds tempered words,
  /// so a disabled call is a plain re-read of the same buffered value.
  std::uint32_t next(bool enable) {
    if (inner_.index_ >= inner_.params_.n) inner_.refill();
    const std::uint32_t y = inner_.block_[inner_.index_];
    if (enable) {
      ++inner_.index_;
      ++committed_;
    }
    return y;
  }

  /// Block fast path for a run of `count` *enabled* draws: equivalent
  /// to count× next(true), for batched consumers that know up front
  /// how many commits they need (e.g. the tape-batched work-item).
  void generate_block(std::uint32_t* out, std::size_t count) {
    inner_.generate_block(out, count);
    committed_ += count;
  }

  /// Number of committed (enabled) steps so far.
  std::uint64_t committed_steps() const { return committed_; }

  const MtParams& params() const { return inner_.params(); }

 private:
  MersenneTwister inner_;
  std::uint64_t committed_ = 0;
};

}  // namespace dwi::rng
