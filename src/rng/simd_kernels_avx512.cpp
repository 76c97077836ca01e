// The AVX-512 level: the kernel bodies of rng/simd_bodies.h at 16 float
// lanes, handing short tails and out-of-range groups to the same bodies
// at 8 lanes. Compiled with -mavx512{f,cd,bw,dq,vl} -ffp-contract=off
// and only ever *called* after a cpuid check (see active_level()). The
// object defines the table kernels_avx512 and exports nothing else
// (rng/simd_lanes.h).
#include "rng/simd_bodies.h"

namespace dwi::rng::simd {

namespace {

constexpr Kernels kLanes8 = table<Lanes8>();

const Kernels& Lanes16::down() { return kLanes8; }

}  // namespace

extern const Kernels kernels_avx512;
const Kernels kernels_avx512 = table<Lanes16>();

}  // namespace dwi::rng::simd
