// Reusable per-thread scratch buffers for block-batched hot paths.
//
// The batched sampling pipeline (rng::generate_block feeding the
// batched normal transforms and the Marsaglia-Tsang rejection loop)
// needs a handful of u32/f32 staging arrays per chunk. Allocating
// them per call would put malloc back on the hot path the batching
// just removed; storing them inside every work-item would bloat
// objects that tests construct by the hundreds. Instead each worker
// thread owns one BlockArena whose slots grow monotonically and are
// reused across calls — zero allocation in steady state, and safe
// under src/exec's thread pool because the arena is thread_local.
//
// Usage contract: u32(slot, count) returns a pointer to at least
// `count` elements; the pointer stays valid until the next request
// for the SAME slot (possibly by another object on the same thread),
// so callers must finish consuming a slot before any callee that
// might touch the arena reuses it. Slots are namespaced per element
// type; contents are uninitialized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dwi::common {

class BlockArena {
 public:
  static constexpr std::size_t kSlots = 8;

  std::uint32_t* u32(std::size_t slot, std::size_t count) {
    return grow(u32_[slot], count);
  }
  float* f32(std::size_t slot, std::size_t count) {
    return grow(f32_[slot], count);
  }

 private:
  template <typename T>
  static T* grow(std::vector<T>& v, std::size_t count) {
    if (v.size() < count) v.resize(count);
    return v.data();
  }

  std::vector<std::uint32_t> u32_[kSlots];
  std::vector<float> f32_[kSlots];
};

/// The calling thread's arena (one per thread, created on first use;
/// lives until thread exit, so steady-state calls never allocate once
/// the high-water marks are reached).
inline BlockArena& thread_block_arena() {
  thread_local BlockArena arena;
  return arena;
}

}  // namespace dwi::common
