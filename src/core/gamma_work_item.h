// Listing 2: the fully pipelined GammaRNG work-item for the FPGA.
//
// One call to step() is one MAINLOOP initiation — the body the paper
// schedules at II = 1:
//   * the enable-gated Mersenne-Twisters (Listing 3) run every cycle
//     but commit state only when their stage actually consumed a value,
//     so rejections upstream never distort the uniform streams (§II-E);
//   * the normal transform (Marsaglia-Bray or bit-level ICDF per
//     config), the Marsaglia-Tsang rejection test and the α<1
//     correction are computed unconditionally and *selected* by flags,
//     exactly as a pipelined datapath evaluates both sides;
//   * the loop exit uses the DelayedCounter workaround, so the work
//     item runs up to breakId+1 harmless extra iterations per sector;
//   * the guarded write (`gRN_ok && counter < limitMain`) emits the
//     validated gamma RN.
//
// SECLOOP iterates the financial sectors, each with its own variance
// (CreditRisk+, §II-D4). The class also implements fpga::ProducerModel
// so the same object drives the cycle-level timing simulation, which
// reads it 64 initiations at a time through produce_word().
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/delayed_counter.h"
#include "fpga/kernel_sim.h"
#include "rng/configs.h"
#include "rng/gamma.h"
#include "rng/mersenne_twister.h"

namespace dwi::core {

/// A work-item's four twisters take the paper's distinct seeds
/// (§II-E): one SplitMix-derived seed per (seed, work_item_id, stream),
/// so overlap between streams is improbable rather than impossible.
struct GammaWorkItemConfig {
  rng::AppConfig app = rng::config(rng::ConfigId::kConfig1);
  /// Per-sector variances v_k (CreditRisk+ sectors). One entry per
  /// SECLOOP trip; the representative setup uses 240 × 1.39.
  std::vector<float> sector_variances = {1.39f};
  /// limitMain: validated outputs per sector for this work-item.
  std::uint32_t outputs_per_sector = 1000;
  /// limitMax: safety bound on MAINLOOP trips (0 = derive from
  /// outputs_per_sector with ample rejection headroom).
  std::uint32_t limit_max = 0;
  unsigned break_id = 0;  ///< DelayedCounter delay register index
  unsigned work_item_id = 0;
  std::uint32_t seed = 1;
  /// Host-side batching width: produce() and produce_word() serve from
  /// an internal tape of up to this many precomputed MAINLOOP
  /// iterations, generated via the block RNG fast path
  /// (rng::MersenneTwister::generate_block) and the batched
  /// normal/rejection transforms. Outputs, iteration counts and
  /// finished() timing are bit-identical to the scalar path for every
  /// value; <= 1 disables batching and runs the scalar reference path
  /// (the equivalence tests compare both).
  std::uint32_t batch_iterations = 2048;
};

class GammaWorkItem final : public fpga::ProducerModel {
 public:
  explicit GammaWorkItem(const GammaWorkItemConfig& cfg);

  /// One MAINLOOP initiation. Returns true and sets *value when this
  /// iteration wrote a validated gamma RN to the stream.
  bool produce(float* value) override;

  /// Up to 64 MAINLOOP initiations as one accept word (see
  /// fpga::ProducerModel::produce_word), served from the tape across
  /// fills and sector boundaries; stops early only after the `want`-th
  /// output or once finished(). Same iterations, outputs and values as
  /// that many produce() calls. With `values` null the α < 1
  /// correction never runs.
  std::uint64_t produce_word(std::uint64_t want, float* values,
                             unsigned& ran) override;

  /// True once every sector's quota has been produced.
  bool finished() const { return finished_; }

  // --- statistics -----------------------------------------------------
  std::uint64_t iterations() const { return iterations_; }
  std::uint64_t outputs() const { return outputs_; }
  /// Combined rejection rate observed so far (§IV-E definition:
  /// fraction of iterations without a validated output).
  double rejection_rate() const;

  /// Total validated outputs this work-item will produce.
  std::uint64_t total_quota() const;

 private:
  void enter_sector(std::size_t sector);

  /// Precompute the next run of MAINLOOP iterations into the tape.
  /// Handles the SECLOOP exit checks, then either one scalar iteration
  /// (batching disabled) or a batched chunk that runs on across sector
  /// exits. Sets finished_ (leaving the tape empty) when every sector
  /// is exhausted.
  void fill_tape();
  void fill_tape_scalar();   ///< one iteration, classic Listing 2 body
  void fill_tape_batched();  ///< block-RNG chunk, bit-identical outputs

  /// Run the predicate with gamma_k_ over the fill's valid lanes
  /// [from, n_valid); the lanes before `from` keep their values and
  /// flags.
  void predicate_lanes(const float* n0, const std::uint32_t* u1,
                       std::size_t from, std::size_t n_valid);

  GammaWorkItemConfig cfg_;

  // The paper's twisters, indexed by stage: 0 and 1 are MT0, the
  // normal input (Marsaglia-Bray splits it into two parallel twisters
  // per [18]); 2 is MT1, the rejection uniform; 3 is MT2, the
  // correction uniform.
  std::array<rng::AdaptedMersenneTwister, 4> mt_;

  DelayedCounter counter_;
  std::size_t sector_ = 0;
  std::uint32_t k_ = 0;  ///< MAINLOOP induction variable
  std::uint32_t limit_max_ = 0;
  rng::GammaConstants gamma_k_{};
  bool alpha_flag_ = false;
  bool finished_ = false;

  std::uint64_t iterations_ = 0;
  std::uint64_t outputs_ = 0;

  // Tape of precomputed MAINLOOP iterations: one accept bit per
  // iteration (did the guarded write emit?), 64 to a word. produce()
  // consumes one bit per call and produce_word() up to 64, preserving
  // the scalar call-for-call contract (iteration counts, finished()
  // timing). A batched fill leaves tape_values_ raw: one candidate per
  // valid normal, emit flags in tape_ok_, and one TapeSegment per
  // sector the fill ran through. The first value read
  // (corrected_values()) compacts the emitted ones and, in each α < 1
  // segment, draws their MT2 words and corrects them with that
  // sector's constants. Each accept owes one MT2 word (u2_owed_), so a
  // caller that only asks for accept bits never draws an MT2 word nor
  // pays for the powf.
  struct TapeSegment {
    rng::GammaConstants k;
    bool alpha_flag = false;
    std::size_t accepted = 0;  ///< MT2 words the sector's run committed
    std::size_t emitted = 0;   ///< values it wrote
  };
  std::vector<std::uint64_t> tape_bits_;
  std::vector<float> tape_values_;
  std::vector<std::uint64_t> tape_ok_;
  std::vector<TapeSegment> tape_segments_;
  std::size_t tape_len_ = 0;  ///< iterations on the tape
  std::size_t tape_pos_ = 0;  ///< next iteration to serve
  std::size_t tape_value_pos_ = 0;
  std::size_t tape_lanes_ = 0;     ///< valid lanes of a raw fill
  std::size_t tape_accepted_ = 0;  ///< accepted candidates of a raw fill
  std::uint64_t u2_owed_ = 0;      ///< MT2 words committed, not drawn
  bool tape_raw_ = false;

  /// The tape's values from tape_value_pos_ on, compacted and
  /// corrected.
  const float* corrected_values();
};

}  // namespace dwi::core
