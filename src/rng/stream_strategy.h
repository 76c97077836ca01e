// How a CreditRisk+ pipeline sector derives its private RNG substream
// from one master seed. The enum has one value, and it stays only
// because perfbench's creditrisk_pipeline copies
// finance::PipelineConfig::strategy into core::StreamConfig::strategy;
// both fields can go once perfbench stops naming them.
// core::GammaWorkItem and the SIMT engine use the paper's distinct
// seeds, which are the modeled hardware's, not this enum.
#pragma once

namespace dwi::rng {

enum class StreamStrategy {
  /// One master Philox4x32 counter sequence (rng/philox.h): stream i
  /// starts at absolute output i·stride, reached by writing the
  /// counter — an O(1) integer multiply, no per-stream state, no
  /// caches. Overlap is impossible by construction and random seek()
  /// into any position of any stream is free.
  kCounterBased,
};

}  // namespace dwi::rng
