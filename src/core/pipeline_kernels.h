// Stage kernels of the inter-kernel CreditRisk+ chain (finance/pipeline):
// uniform RNG → normal transform → gamma rejection, factored so that the
// *same* kernel bodies run in both execution modes —
//
//   staged: each kernel runs to completion, materializing its whole
//     output before the next kernel launches (host round-trips, the
//     pre-pipe OpenCL baseline);
//   piped:  one decoupled work-item per sector runs all three kernels
//     back to back on its own substream, wave after wave, as a task on
//     the exec pool (fpga::PipelineSim is the cycle-level model of the
//     chain).
//
// Bit-identity between the modes is by construction: every kernel is a
// pure function of its input bundles, and each sector's bundles are
// consumed in round order, so per-sector outputs cannot depend on the
// schedule. next_round(k) touches only sector k's stream, so different
// sectors may call it concurrently; a GammaRejectKernel is not shared.
//
// Uniform-tape contract (the pipeline analogue of the Philox
// sample_block tape in rng/gamma.h): sector k's stream is consumed in
// fixed-size rounds of `round` attempts; round r draws, in block order,
//     ua[round], (ub[round] when the transform takes two uniforms),
//     u1[round], (u2[round] when the sector's α < 1)
// — a data-INdependent layout. The i-th *valid* normal of a round is
// tested against u1[i], the j-th *accepted* candidate corrected with
// u2[j]; surplus u1/u2 entries are discarded. The accepted-variate
// sequence of a sector is therefore a pure function of the stream
// alone: any execution that consumes rounds in order reproduces the
// same prefix bit for bit, no matter how many extra rounds it ran.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/gamma.h"
#include "rng/normal.h"
#include "rng/philox.h"
#include "rng/stream_strategy.h"

namespace dwi::core {

/// One round of raw uniforms for one sector (output of the uniform
/// kernel). Blocks that the sector's layout does not use stay empty.
struct RoundBundle {
  std::uint32_t sector = 0;
  std::uint64_t round = 0;  ///< per-sector round index (diagnostics)
  std::vector<std::uint32_t> ua;
  std::vector<std::uint32_t> ub;
  std::vector<std::uint32_t> u1;
  std::vector<std::uint32_t> u2;
};

/// Output of the normal-transform kernel: the round's valid normals,
/// compacted, with the rejection/correction uniforms passed through.
struct CandidateBundle {
  std::uint32_t sector = 0;
  std::uint64_t round = 0;
  std::uint64_t attempts = 0;  ///< round size (for rejection stats)
  std::vector<float> n0;       ///< compacted valid normals
  std::vector<std::uint32_t> u1;
  std::vector<std::uint32_t> u2;
};

/// Output of the gamma-rejection kernel for one bundle: accepted
/// variates (scaled, α<1-corrected), still per sector.
struct AcceptedBlock {
  std::uint32_t sector = 0;
  std::vector<float> values;
};

/// Where the per-sector substreams sit on the one master Philox
/// sequence of `seed`: sector k starts at output k · stride.
struct StreamConfig {
  /// Has one value. It stays only because perfbench's
  /// creditrisk_pipeline copies finance::PipelineConfig::strategy in.
  rng::StreamStrategy strategy = rng::StreamStrategy::kCounterBased;
  std::uint32_t seed = 1;
  std::uint64_t stride = 1ull << 26;  ///< master outputs per sector
};

/// Uniform RNG kernel: owns one counter-based Philox substream per
/// sector and emits fixed-layout RoundBundles on demand.
class UniformKernel {
 public:
  /// `constants[k]` decides whether sector k's layout includes u2
  /// (α < 1); `transform` whether it includes ub.
  UniformKernel(const StreamConfig& cfg, rng::NormalTransform transform,
                std::vector<rng::GammaConstants> constants,
                std::size_t round);

  std::size_t num_sectors() const { return constants_.size(); }
  std::size_t round() const { return round_; }

  /// Produce sector `k`'s next round. Rounds for one sector must be
  /// taken in order (the kernel advances k's stream).
  RoundBundle next_round(std::size_t k);

  /// Rounds produced so far for sector `k`.
  std::uint64_t rounds_produced(std::size_t k) const {
    return rounds_[k];
  }

 private:
  rng::NormalTransform transform_;
  std::vector<rng::GammaConstants> constants_;
  std::size_t round_;
  std::vector<rng::Philox> streams_;
  std::vector<std::uint64_t> rounds_;
};

/// Normal-transform kernel: one bundle in, one bundle out. Applies the
/// block transform (rng/normal.h) and compacts the valid normals; the
/// u1/u2 blocks ride through untouched.
CandidateBundle normal_kernel(rng::NormalTransform transform,
                              RoundBundle bundle);

/// Gamma-rejection kernel: Marsaglia-Tsang predicate + α<1 correction
/// over one candidate bundle (vectorized, rng/simd_kernels.h). Pure:
/// carries no cross-bundle state.
class GammaRejectKernel {
 public:
  explicit GammaRejectKernel(std::vector<rng::GammaConstants> constants);

  AcceptedBlock run(const CandidateBundle& bundle);

  /// Attempt/acceptance totals across every bundle run (the paper's
  /// combined rejection rate, §IV-E).
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t accepted() const { return accepted_; }

 private:
  std::vector<rng::GammaConstants> constants_;
  std::uint64_t attempts_ = 0;
  std::uint64_t accepted_ = 0;
};

/// Expected accepted variates per round attempt for sizing staged
/// epochs: P(valid normal) · P(accept | valid), the second factor the
/// Marsaglia-Tsang squeeze-region estimate (~0.95 for the shapes the
/// CreditRisk+ sectors use).
double expected_accept_per_attempt(rng::NormalTransform transform);

}  // namespace dwi::core
