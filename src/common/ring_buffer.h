// Fixed-capacity single-threaded ring buffer.
//
// Used by the FPGA timing simulator to model hls::stream FIFO occupancy
// (where capacity == the stream depth set by #pragma HLS STREAM) and by
// the memory-channel arbitration queue. Unlike dwi::hls::stream it is
// non-blocking and single-threaded: the discrete-event engine polls
// full()/empty() explicitly, exactly as RTL handshake signals would.
//
// THREADING CONTRACT: this class performs no synchronization. It may
// migrate between threads (the exec engine hands whole work-item
// simulations to pool workers), but at most one thread may touch a
// given instance at a time, with a happens-before edge on every
// handoff — which exec::parallel_for's claim/complete protocol
// provides. Two threads that need a shared queue must use a blocking
// FIFO (hls::stream) or guard the ring with a mutex, as the
// serve layer's BatchScheduler does. Debug builds enforce the
// contract: every mutating or reading accessor asserts that no other
// access is in flight.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.h"

#ifndef DWI_RING_BUFFER_CHECKS
#ifdef NDEBUG
#define DWI_RING_BUFFER_CHECKS 0
#else
#define DWI_RING_BUFFER_CHECKS 1
#endif
#endif

#if DWI_RING_BUFFER_CHECKS
#include <atomic>
#endif

namespace dwi {

#if DWI_RING_BUFFER_CHECKS
namespace detail {

/// Debug-only concurrent-access detector. Copy/move of the owning
/// buffer resets the flag (a fresh object has no access in flight).
struct RingBufferAccessFlag {
  std::atomic<unsigned> in_flight{0};
  RingBufferAccessFlag() = default;
  RingBufferAccessFlag(const RingBufferAccessFlag&) noexcept {}
  RingBufferAccessFlag& operator=(const RingBufferAccessFlag&) noexcept {
    return *this;
  }
};

class RingBufferAccessScope {
 public:
  explicit RingBufferAccessScope(RingBufferAccessFlag& flag) : flag_(flag) {
    const unsigned prior =
        flag_.in_flight.fetch_add(1, std::memory_order_acq_rel);
    DWI_ASSERT(prior == 0 && "concurrent RingBuffer access: the "
               "single-threaded contract is violated");
  }
  ~RingBufferAccessScope() {
    flag_.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  }
  RingBufferAccessScope(const RingBufferAccessScope&) = delete;
  RingBufferAccessScope& operator=(const RingBufferAccessScope&) = delete;

 private:
  RingBufferAccessFlag& flag_;
};

}  // namespace detail
#define DWI_RING_BUFFER_GUARD() \
  ::dwi::detail::RingBufferAccessScope dwi_rb_guard_(access_flag_)
#else
#define DWI_RING_BUFFER_GUARD() \
  do {                          \
  } while (0)
#endif

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : slots_(capacity), capacity_(capacity) {
    DWI_REQUIRE(capacity > 0, "ring buffer capacity must be positive");
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Insert an element; the buffer must not be full.
  void push(T value) {
    DWI_RING_BUFFER_GUARD();
    DWI_ASSERT(size_ != capacity_);
    slots_[tail_] = std::move(value);
    tail_ = next(tail_);
    ++size_;
  }

  /// Attempt to insert; returns false when full.
  bool try_push(T value) {
    if (full()) return false;
    push(std::move(value));
    return true;
  }

  /// Look at the oldest element; the buffer must not be empty.
  const T& front() const {
    DWI_ASSERT(!empty());
    return slots_[head_];
  }

  /// Remove and return the oldest element; the buffer must not be empty.
  T pop() {
    DWI_RING_BUFFER_GUARD();
    DWI_ASSERT(size_ != 0);
    T value = std::move(slots_[head_]);
    head_ = next(head_);
    --size_;
    return value;
  }

  void clear() {
    DWI_RING_BUFFER_GUARD();
    head_ = tail_ = 0;
    size_ = 0;
  }

 private:
  std::size_t next(std::size_t i) const {
    return i + 1 == capacity_ ? 0 : i + 1;
  }

  std::vector<T> slots_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
#if DWI_RING_BUFFER_CHECKS
  mutable detail::RingBufferAccessFlag access_flag_;
#endif
};

}  // namespace dwi
