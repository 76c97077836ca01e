// Bit-level "FPGA-style" inverse normal CDF transform, following the
// hardware-efficient non-uniform-segmentation design of de Schryver et
// al. [19] that the paper uses on the FPGA (§II-D3).
//
// Principle: the normal ICDF Φ^{-1}(t) has a sqrt-log singularity as
// t → 0, so uniform segmentation would need a huge table. Instead the
// input's leading-zero count selects an *octave* (each halving of t
// gets its own segment — pure bit-level logic, a leading-zero detector
// in hardware), the next few mantissa bits select a uniform sub-segment
// inside the octave, and a small degree-2 polynomial in ap_fixed
// arithmetic evaluates the output. No floating point, no division, no
// transcendentals — only LZD, table lookup, and two fixed-point MACs.
//
// On fixed-architecture targets the same structure must be emulated
// with 32-bit integer shift/and/or operations, which §IV-E shows is
// markedly slower there (Table III "ICDF FPGA-style" rows); the
// functional result is identical, only the cost model differs.
//
// Accuracy: |output − Φ^{-1}| validated < 1e-3 absolute over the full
// input range (tests), KS-indistinguishable from normal at n = 10^6.
#pragma once

#include <array>
#include <cstdint>

#include "hls/ap_fixed.h"

namespace dwi::rng {

/// Segmentation geometry and coefficient tables for the bitwise ICDF.
class IcdfBitwiseTable {
 public:
  static constexpr unsigned kOctaves = 31;    ///< LZD-selected octaves
  static constexpr unsigned kSubBits = 3;     ///< sub-segments per octave
  static constexpr unsigned kSubSegments = 1u << kSubBits;

  /// Fixed-point formats: outputs/coefficients span ±~7σ.
  using Coeff = hls::ap_fixed<32, 5>;
  /// Local in-segment coordinate in [0, 1).
  using Local = hls::ap_fixed<32, 2>;

  /// Build the tables from the double-precision reference ICDF
  /// (Chebyshev-node quadratic fit per sub-segment).
  IcdfBitwiseTable();

  /// Shared immutable instance (tables are ~12 KB).
  static const IcdfBitwiseTable& instance();

  struct Segment {
    Coeff c0, c1, c2;  ///< g(x) ≈ c0 + c1·x + c2·x², x ∈ [0,1) local
  };

  const Segment& segment(unsigned octave, unsigned sub) const {
    return segments_[octave * kSubSegments + sub];
  }
  /// All segments, octave-major (the vector kernels' gather base).
  const Segment* data() const;

  /// Total table footprint in bits (drives the BRAM resource estimate).
  static constexpr unsigned table_bits() {
    return kOctaves * kSubSegments * 3 * Coeff::width;
  }

 private:
  std::array<Segment, kOctaves * kSubSegments> segments_;
};

/// Result of one ICDF evaluation. `valid` is false only for the single
/// unsupported input word (t_int == 0, probability 2^-31); the paper's
/// pipeline treats an invalid normal exactly like a Marsaglia-Bray
/// rejection (the downstream twisters are not advanced).
struct IcdfResult {
  float value = 0.0f;
  bool valid = false;
};

/// Evaluate the bitwise ICDF on a 32-bit uniform integer.
IcdfResult normal_icdf_bitwise(std::uint32_t u);

/// Same evaluation path but returning the raw fixed-point output, for
/// tests that pin the bit-level behaviour.
IcdfBitwiseTable::Coeff normal_icdf_bitwise_fixed(std::uint32_t u,
                                                  bool* valid);

}  // namespace dwi::rng
