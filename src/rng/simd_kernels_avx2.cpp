// The AVX2 level: the kernel bodies of rng/simd_bodies.h at 8 float
// lanes. Compiled with -mavx2 -ffp-contract=off and only ever *called*
// after a cpuid check (see active_level()). The object defines the
// table kernels_avx2 and exports nothing else (rng/simd_lanes.h).
#include "rng/simd_bodies.h"

namespace dwi::rng::simd {

extern const Kernels kernels_avx2;
const Kernels kernels_avx2 = table<Lanes8>();

}  // namespace dwi::rng::simd
