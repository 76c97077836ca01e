#include "rng/mersenne_twister.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "rng/simd_kernels.h"

namespace dwi::rng {

MtParams mt19937_params() {
  return MtParams{
      /*n=*/624,    /*m=*/397,          /*r=*/31,
      /*a=*/0x9908b0dfu,
      /*u=*/11,     /*d=*/0xffffffffu,
      /*s=*/7,      /*b=*/0x9d2c5680u,
      /*t=*/15,     /*c=*/0xefc60000u,
      /*l=*/18,     /*f=*/1812433253u,
  };
}

MtParams mt521_params() {
  // DCMT geometry for period exponent 521: n*32 - r = 17*32 - 23. The
  // twist coefficient a = 0xe4bd7697 was found by this library's own
  // dynamic-creation search (rng/dcmt.h) and PROVEN to give the full
  // period 2^521 - 1: the GF(2) transition matrix is invertible,
  // non-identity, and satisfies T^(2^521) = T, and 2^521 - 1 is a
  // Mersenne prime so the order is exactly 2^521 - 1. The paper's own
  // DCMT output is unpublished; tempering masks are ours (tempering is
  // a bijection and does not affect the period), validated
  // statistically in tests/test_mersenne_twister.cpp.
  return MtParams{
      /*n=*/17,     /*m=*/8,            /*r=*/23,
      /*a=*/0xe4bd7697u,
      /*u=*/11,     /*d=*/0xffffffffu,
      /*s=*/7,      /*b=*/0x655e5280u,
      /*t=*/15,     /*c=*/0xffd58000u,
      /*l=*/18,     /*f=*/1812433253u,
  };
}

MersenneTwister::MersenneTwister(const MtParams& params, std::uint32_t seed_v)
    : params_(params), state_(params.n), block_(params.n), index_(params.n),
      lower_mask_((params.r == 32) ? 0xffffffffu
                                   : ((std::uint32_t{1} << params.r) - 1)),
      upper_mask_(~lower_mask_) {
  DWI_REQUIRE(params.n >= 2 && params.m >= 1 && params.m < params.n,
              "invalid Mersenne-Twister geometry");
  DWI_REQUIRE(params.r >= 1 && params.r <= 32, "invalid separation point r");
  seed(seed_v);
}

MersenneTwister::MersenneTwister(const MtParams& params,
                                 const std::vector<std::uint32_t>& raw_state)
    : MersenneTwister(params, 5489u) {
  DWI_REQUIRE(raw_state.size() == params.n,
              "raw state must have n words");
  state_ = raw_state;
  index_ = params_.n;  // force a twist before the first output
}

namespace {

// Memoized Knuth seeding. Partition sweeps (simt/runtime_estimator)
// construct thousands of twisters from a small set of recurring
// (seed, geometry) pairs; the serial init recurrence is the dominant
// construction cost, while replaying a cached state is one memcpy.
// Thread-local, so no synchronization; capped so long-lived servers
// with many distinct seeds cannot grow it without bound.
struct SeedKey {
  std::uint32_t s, n, f;
  bool operator==(const SeedKey& o) const {
    return s == o.s && n == o.n && f == o.f;
  }
};
struct SeedKeyHash {
  std::size_t operator()(const SeedKey& k) const {
    std::uint64_t h = (std::uint64_t{k.s} << 32) ^
                      (std::uint64_t{k.n} << 8) ^ k.f;
    h *= 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};
constexpr std::size_t kSeedCacheCap = 1024;

}  // namespace

void MersenneTwister::seed(std::uint32_t s) {
  thread_local std::unordered_map<SeedKey, std::vector<std::uint32_t>,
                                  SeedKeyHash>
      cache;
  const SeedKey key{s, params_.n, params_.f};
  auto it = cache.find(key);
  if (it != cache.end()) {
    std::memcpy(state_.data(), it->second.data(),
                params_.n * sizeof(std::uint32_t));
    index_ = params_.n;
    return;
  }
  state_[0] = s;
  for (unsigned i = 1; i < params_.n; ++i) {
    state_[i] =
        params_.f * (state_[i - 1] ^ (state_[i - 1] >> 30)) + i;
  }
  index_ = params_.n;
  if (cache.size() >= kSeedCacheCap) cache.clear();
  cache.emplace(key, state_);
}

void MersenneTwister::twist() {
  // One in-place pass of the twist recurrence
  //   x = (s[i] & upper) | (s[i+1 mod n] & lower)
  //   s[i] <- s[i+m mod n] ^ (x >> 1) ^ (lsb(x) ? a : 0)
  // via the dispatched block kernel (rng/simd_kernels.h): three
  // modulo-free segments whose boundaries encode exactly which
  // neighbours have already been rewritten by this pass, bit-identical
  // to the classic word-at-a-time formulation in every variant.
  simd::mt_twist_block(state_.data(), params_);
}

void MersenneTwister::refill() {
  // Twist, then temper as a second tight loop into block_, which
  // next()/generate_block() serve from.
  twist();
  simd::mt_temper_block(state_.data(), params_.n, params_, block_.data());
  index_ = 0;
}

void MersenneTwister::generate_block(std::uint32_t* out, std::size_t count) {
  const unsigned n = params_.n;
  // Drain whatever the tempered buffer still holds.
  if (index_ < n) {
    const std::size_t take =
        std::min<std::size_t>(count, static_cast<std::size_t>(n - index_));
    std::memcpy(out, block_.data() + index_, take * sizeof(std::uint32_t));
    index_ += static_cast<unsigned>(take);
    out += take;
    count -= take;
  }
  // Bulk path: twist whole blocks straight into `out` untempered, then
  // temper the run in one pass (in place — the kernel is elementwise).
  // For small-n geometries (MT(521), n = 17) this replaces a per-block
  // refill + dispatch + memcpy round-trip with one dense temper call.
  if (count >= n) {
    std::uint32_t* const raw = out;
    std::size_t run = 0;
    do {
      twist();
      std::memcpy(out, state_.data(), n * sizeof(std::uint32_t));
      out += n;
      run += n;
      count -= n;
    } while (count >= n);
    simd::mt_temper_block(raw, run, params_, raw);
  }
  // Tail shorter than a block: refill and serve from the buffer.
  if (count > 0) {
    refill();
    std::memcpy(out, block_.data(), count * sizeof(std::uint32_t));
    index_ = static_cast<unsigned>(count);
  }
}

AdaptedMersenneTwister::AdaptedMersenneTwister(const MtParams& params,
                                               std::uint32_t seed_v)
    : inner_(params, seed_v) {}

void AdaptedMersenneTwister::seed(std::uint32_t s) {
  inner_.seed(s);
  committed_ = 0;
}

}  // namespace dwi::rng
