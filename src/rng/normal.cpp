#include "rng/normal.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/bits.h"
#include "common/error.h"
#include "rng/erfinv.h"
#include "rng/fastmath.h"
#include "rng/icdf_bitwise.h"
#include "rng/simd_kernels.h"

namespace dwi::rng {

const char* to_string(NormalTransform t) {
  switch (t) {
    case NormalTransform::kMarsagliaBray: return "Marsaglia-Bray";
    case NormalTransform::kIcdfBitwise: return "ICDF (FPGA-style)";
    case NormalTransform::kIcdfCuda: return "ICDF (CUDA-style)";
    case NormalTransform::kBoxMuller: return "Box-Muller";
  }
  return "?";
}

unsigned uniforms_per_attempt(NormalTransform t) {
  switch (t) {
    case NormalTransform::kMarsagliaBray: return 2;
    case NormalTransform::kIcdfBitwise: return 1;
    case NormalTransform::kIcdfCuda: return 1;
    case NormalTransform::kBoxMuller: return 2;
  }
  return 1;
}

NormalAttempt marsaglia_bray_attempt(std::uint32_t u1, std::uint32_t u2) {
  // Map each uniform to (-1, 1); the open-interval mapping keeps s > 0.
  const float v1 = 2.0f * uint2float_open0(u1) - 1.0f;
  const float v2 = 2.0f * uint2float_open0(u2) - 1.0f;
  const float s = v1 * v1 + v2 * v2;
  if (s >= 1.0f || s == 0.0f) return NormalAttempt{0.0f, false};
  const float f = std::sqrt(-2.0f * fast_logf(s) / s);
  return NormalAttempt{v1 * f, true};
}

float box_muller(std::uint32_t u1, std::uint32_t u2, float* second) {
  const float a = uint2float_open0(u1);  // (0, 1], safe for log
  const float b = uint2float(u2);        // [0, 1)
  const float r = std::sqrt(-2.0f * std::log(a));
  const float theta = 2.0f * std::numbers::pi_v<float> * b;
  if (second != nullptr) *second = r * std::sin(theta);
  return r * std::cos(theta);
}

NormalAttempt normal_attempt(NormalTransform t, std::uint32_t u1,
                             std::uint32_t u2) {
  switch (t) {
    case NormalTransform::kMarsagliaBray:
      return marsaglia_bray_attempt(u1, u2);
    case NormalTransform::kIcdfBitwise: {
      const IcdfResult r = normal_icdf_bitwise(u1);
      return NormalAttempt{r.value, r.valid};
    }
    case NormalTransform::kIcdfCuda:
      return NormalAttempt{normal_icdf_cuda(u1), true};
    case NormalTransform::kBoxMuller:
      return NormalAttempt{box_muller(u1, u2), true};
  }
  return NormalAttempt{};
}

std::size_t normal_attempt_block(NormalTransform t, const std::uint32_t* ua,
                                 const std::uint32_t* ub, std::size_t count,
                                 float* n0, std::uint64_t* valid) {
  // Dispatched mask kernels (AVX2 when available; bit-identical scalar
  // otherwise — rng/simd_kernels.h). The two rejection-free transforms
  // write every lane and flag them all.
  switch (t) {
    case NormalTransform::kMarsagliaBray:
      return simd::active_kernels().mb_attempt_block(ua, ub, count, n0, valid);
    case NormalTransform::kIcdfBitwise:
      return simd::active_kernels().icdf_bitwise_block(ua, count, n0, valid);
    case NormalTransform::kIcdfCuda:
      simd::active_kernels().icdf_cuda_block(ua, count, n0);
      break;
    case NormalTransform::kBoxMuller:
      for (std::size_t i = 0; i < count; ++i) n0[i] = box_muller(ua[i], ub[i]);
      break;
  }
  std::fill_n(valid, count / 64, ~std::uint64_t{0});
  if (count % 64 != 0) valid[count / 64] = low_bits(count % 64);
  return count;
}

double analytic_acceptance(NormalTransform t) {
  switch (t) {
    case NormalTransform::kMarsagliaBray: return std::numbers::pi / 4.0;
    case NormalTransform::kIcdfBitwise: return 1.0 - 0x1.0p-31;
    case NormalTransform::kIcdfCuda: return 1.0;
    case NormalTransform::kBoxMuller: return 1.0;
  }
  return 1.0;
}

}  // namespace dwi::rng
