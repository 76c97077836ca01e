// hls::stream<T>: blocking bounded FIFO modelled on the Vivado HLS
// stream (hls_stream.h). In the paper it is the only channel between a
// work-item's GammaRNG producer and its Transfer consumer (Listing 1);
// the DATAFLOW pragma turns those functions into concurrently running
// processes. We reproduce that execution model with one std::thread per
// process (see dataflow.h), so the stream is a thread-safe queue with
// blocking read/write — the software analogue of the RTL FIFO
// handshake.
//
// Default capacity is 2, matching the Vivado default FIFO depth; the
// paper sizes transfer streams deeper via #pragma HLS STREAM, modelled
// here by the constructor argument.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <utility>

#include "common/error.h"

namespace dwi::hls {

template <typename T>
class stream {
 public:
  explicit stream(std::size_t depth = 2, std::string name = {})
      : depth_(depth), name_(std::move(name)) {
    DWI_REQUIRE(depth >= 1, "stream depth must be at least 1");
  }

  stream(const stream&) = delete;
  stream& operator=(const stream&) = delete;

  /// Blocking write: waits while the FIFO is full.
  void write(const T& value) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return queue_.size() < depth_; });
    queue_.push_back(value);
    peak_depth_ = std::max(peak_depth_, queue_.size());
    ++total_writes_;
    lock.unlock();
    not_empty_.notify_one();
  }

  /// Blocking read: waits while the FIFO is empty.
  T read() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return !queue_.empty(); });
    T value = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking write; returns false when full (Vivado write_nb).
  bool write_nb(const T& value) {
    {
      std::lock_guard lock(mutex_);
      if (queue_.size() >= depth_) return false;
      queue_.push_back(value);
      peak_depth_ = std::max(peak_depth_, queue_.size());
      ++total_writes_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking read; returns false when empty (Vivado read_nb).
  bool read_nb(T& value) {
    {
      std::lock_guard lock(mutex_);
      if (queue_.empty()) return false;
      value = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    return true;
  }

  bool empty() const {
    std::lock_guard lock(mutex_);
    return queue_.empty();
  }
  bool full() const {
    std::lock_guard lock(mutex_);
    return queue_.size() >= depth_;
  }
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }
  std::size_t depth() const { return depth_; }
  const std::string& name() const { return name_; }

  /// Peak occupancy observed — used by tests to confirm that the
  /// producer/consumer really ran decoupled (bounded, not batched).
  std::size_t peak_depth() const {
    std::lock_guard lock(mutex_);
    return peak_depth_;
  }
  std::size_t total_writes() const {
    std::lock_guard lock(mutex_);
    return total_writes_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  std::size_t depth_;
  std::size_t peak_depth_ = 0;
  std::size_t total_writes_ = 0;
  std::string name_;
};

}  // namespace dwi::hls
