// How a CreditRisk+ pipeline sector derives its private RNG substreams
// from one master seed. Lives in rng so its two users — core's stage
// kernels and finance's pipeline — can speak the same vocabulary without
// depending on each other. core::GammaWorkItem and the SIMT engine
// always use the paper's distinct seeds.
#pragma once

namespace dwi::rng {

enum class StreamStrategy {
  /// The paper's choice: every stream gets its own mixed seed. Overlap
  /// between streams is merely improbable (§II-E), not impossible.
  kDistinctSeeds,

  /// One master Philox4x32 counter sequence (rng/philox.h): stream i
  /// starts at absolute output i·stride, reached by writing the
  /// counter — an O(1) integer multiply, no per-stream state, no
  /// caches. Overlap is impossible by construction and random seek()
  /// into any position of any stream is free.
  kCounterBased,
};

}  // namespace dwi::rng
