#include "rng/icdf_bitwise.h"

#include <cmath>

#include "common/bits.h"
#include "common/error.h"
#include "stats/special.h"

namespace dwi::rng {

namespace {

// g(t) = -Φ^{-1}(t) for t in (0, 0.5): positive, decreasing in t.
double g_reference(double t) { return -stats::inverse_normal_cdf(t); }

// Sub-segment [t_lo, t_hi] in absolute t-space for (octave, sub).
// Octave k covers t_int in [2^(30-k), 2^(31-k)), i.e. t in
// [2^(30-k)/2^32, 2^(31-k)/2^32); each of the 2^kSubBits sub-segments
// splits that interval uniformly.
void sub_segment_bounds(unsigned octave, unsigned sub, double* t_lo,
                        double* t_hi) {
  const double octave_lo = std::exp2(static_cast<double>(30 - static_cast<int>(octave)) - 32.0);
  const double width = octave_lo / IcdfBitwiseTable::kSubSegments;
  *t_lo = octave_lo + sub * width;
  *t_hi = *t_lo + width;
}

}  // namespace

IcdfBitwiseTable::IcdfBitwiseTable() {
  // Quadratic fit per sub-segment through three Chebyshev-spaced nodes
  // of the local coordinate x in [0,1): {x0, 1/2, 1-x0} with
  // x0 = (1 - cos(π/6))/2, which roughly equi-oscillates the error.
  const double x0 = 0.5 * (1.0 - std::cos(M_PI / 6.0));
  const double xs[3] = {x0, 0.5, 1.0 - x0};

  for (unsigned octave = 0; octave < kOctaves; ++octave) {
    for (unsigned sub = 0; sub < kSubSegments; ++sub) {
      double t_lo = 0.0;
      double t_hi = 0.0;
      sub_segment_bounds(octave, sub, &t_lo, &t_hi);

      double y[3];
      for (int j = 0; j < 3; ++j) {
        // The evaluation path derives x from t_int's bits, so a bit
        // pattern at local coordinate x corresponds to the actual input
        // t = t_int·2^-32 + 2^-33 (the half-LSB open-interval offset).
        // Sample the reference at that shifted point so the polynomial
        // interpolates the transform exactly, octaves deep in the tail
        // included.
        const double t = t_lo + xs[j] * (t_hi - t_lo) + 0x1.0p-33;
        y[j] = g_reference(t);
      }
      // Solve the 3x3 Vandermonde for c0 + c1 x + c2 x² through
      // (xs[j], y[j]).
      const double d01 = xs[0] - xs[1];
      const double d02 = xs[0] - xs[2];
      const double d12 = xs[1] - xs[2];
      const double c2 = y[0] / (d01 * d02) - y[1] / (d01 * d12) +
                        y[2] / (d02 * d12);
      const double c1 =
          (y[0] - y[1]) / d01 - c2 * (xs[0] + xs[1]);
      const double c0 = y[0] - c1 * xs[0] - c2 * xs[0] * xs[0];

      segments_[octave * kSubSegments + sub] =
          Segment{Coeff(c0), Coeff(c1), Coeff(c2)};
    }
  }
}

const IcdfBitwiseTable& IcdfBitwiseTable::instance() {
  static const IcdfBitwiseTable table;
  return table;
}

const IcdfBitwiseTable::Segment* IcdfBitwiseTable::data() const {
  return segments_.data();
}

IcdfBitwiseTable::Coeff normal_icdf_bitwise_fixed(std::uint32_t u,
                                                  bool* valid) {
  using Coeff = IcdfBitwiseTable::Coeff;
  using Local = IcdfBitwiseTable::Local;

  // Fold onto the half-range: p >= 0.5 reflects to t = 1 - p with a
  // positive output sign. t_int is a 31-bit integer with
  // t = (t_int + 0.5) · 2^-32 in (0, 0.5).
  const bool upper_half = (u >> 31) != 0;
  const std::uint32_t t_int = (upper_half ? ~u : u) & 0x7fffffffu;

  if (t_int == 0) {
    *valid = false;
    return Coeff(0.0);
  }
  *valid = true;

  // Leading-zero detector on the 31-bit value selects the octave.
  const int lz = count_leading_zeros(t_int);  // in [1, 31]
  const unsigned octave = static_cast<unsigned>(lz - 1);

  // Bits right below the leading one select the sub-segment; everything
  // after that is the local coordinate. msb_pos = 31 - lz.
  const int msb_pos = 31 - lz;
  unsigned sub = 0;
  std::uint32_t local_bits = 0;
  int local_width = 0;
  if (msb_pos >= static_cast<int>(IcdfBitwiseTable::kSubBits)) {
    const int shift = msb_pos - static_cast<int>(IcdfBitwiseTable::kSubBits);
    sub = (t_int >> shift) & (IcdfBitwiseTable::kSubSegments - 1);
    local_width = shift;
    local_bits = local_width > 0
                     ? (t_int & ((std::uint32_t{1} << shift) - 1))
                     : 0;
  } else {
    // Deep octaves with fewer than kSubBits mantissa bits: promote the
    // available bits to the top of the sub index (zero-fill below).
    const int shift = static_cast<int>(IcdfBitwiseTable::kSubBits) - msb_pos;
    sub = (t_int & ((std::uint32_t{1} << msb_pos) - 1)) << shift;
    local_width = 0;
    local_bits = 0;
  }

  // Local coordinate x in [0, 1) as an ap_fixed<32,2> (30 frac bits).
  Local x = Local::from_raw(
      local_width > 0
          ? static_cast<std::int64_t>(
                static_cast<std::uint64_t>(local_bits)
                << (30 - (local_width > 30 ? 30 : local_width)))
          : 0);
  if (local_width > 30) {
    x = Local::from_raw(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(local_bits) >> (local_width - 30)));
  }

  const auto& seg = IcdfBitwiseTable::instance().segment(octave, sub);

  // Horner in fixed point: g = (c2·x + c1)·x + c0. The multiply mixes
  // formats; align by re-scaling x's raw bits into the coefficient
  // format (30 → 27 fractional bits; x < 1 so it always fits). This is
  // a pure shift, keeping the whole evaluation free of floating point.
  static_assert(Local::frac_bits >= Coeff::frac_bits);
  const Coeff xc =
      Coeff::from_raw(x.raw() >> (Local::frac_bits - Coeff::frac_bits));
  const Coeff g = (seg.c2 * xc + seg.c1) * xc + seg.c0;

  // Reflect: upper half is the positive branch.
  return upper_half ? g : -g;
}

IcdfResult normal_icdf_bitwise(std::uint32_t u) {
  bool valid = false;
  const auto fx = normal_icdf_bitwise_fixed(u, &valid);
  return IcdfResult{fx.to_float(), valid};
}

}  // namespace dwi::rng
