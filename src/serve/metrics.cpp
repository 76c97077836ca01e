#include "serve/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace dwi::serve {

namespace {

std::size_t kind_index(RequestKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  DWI_ASSERT(i < kNumRequestKinds);
  return i;
}

}  // namespace

LatencySummary summarize_latencies(std::vector<double> seconds) {
  LatencySummary s;
  if (seconds.empty()) return s;
  std::sort(seconds.begin(), seconds.end());
  s.count = seconds.size();
  s.min_seconds = seconds.front();
  s.max_seconds = seconds.back();
  double sum = 0.0;
  for (const double v : seconds) sum += v;
  s.mean_seconds = sum / static_cast<double>(seconds.size());
  const auto rank = [&](double q) {
    // Nearest-rank: the smallest sample with at least q of the mass
    // at or below it.
    const auto n = static_cast<double>(seconds.size());
    const auto idx =
        static_cast<std::size_t>(std::ceil(q * n)) - std::size_t{1};
    return seconds[std::min(idx, seconds.size() - 1)];
  };
  s.p50_seconds = rank(0.50);
  s.p95_seconds = rank(0.95);
  s.p99_seconds = rank(0.99);
  return s;
}

LatencyReservoir::LatencyReservoir(std::size_t capacity)
    : capacity_(capacity),
      // Fixed seed: reservoir contents are a deterministic function of
      // the record() sequence, so tests and repeated runs agree.
      rng_state_(0x853c49e6748fea9bull) {
  DWI_REQUIRE(capacity_ >= 1, "latency reservoir needs capacity >= 1");
  samples_.reserve(capacity_);
}

void LatencyReservoir::record(double seconds) {
  if (seen_ == 0 || seconds < min_seconds_) min_seconds_ = seconds;
  if (seen_ == 0 || seconds > max_seconds_) max_seconds_ = seconds;
  sum_seconds_ += seconds;
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(seconds);
    return;
  }
  // Algorithm R: keep the new sample with probability capacity/seen by
  // drawing a uniform slot in [0, seen); splitmix64 output drives the
  // draw.
  rng_state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = rng_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const std::uint64_t slot = z % seen_;
  if (slot < capacity_) samples_[slot] = seconds;
}

LatencySummary LatencyReservoir::summarize() const {
  LatencySummary s = summarize_latencies(samples_);
  // Overwrite the whole-stream statistics with their exact values;
  // only the percentiles stay reservoir-estimated.
  s.count = seen_;
  if (seen_ > 0) {
    s.min_seconds = min_seconds_;
    s.max_seconds = max_seconds_;
    s.mean_seconds = sum_seconds_ / static_cast<double>(seen_);
  }
  return s;
}

void ServerMetrics::record_submitted(RequestKind kind) {
  std::lock_guard lock(mutex_);
  ++submitted_;
  ++submitted_by_kind_[kind_index(kind)];
}

void ServerMetrics::record_rejected(ServeStatus status) {
  std::lock_guard lock(mutex_);
  switch (status) {
    case ServeStatus::kQueueFull: ++rejected_full_; break;
    case ServeStatus::kInvalidRequest: ++rejected_invalid_; break;
    case ServeStatus::kShuttingDown: ++rejected_shutdown_; break;
    case ServeStatus::kAdmitted: DWI_ASSERT(false && "not a rejection");
  }
}

void ServerMetrics::record_admitted(std::size_t queue_depth) {
  std::lock_guard lock(mutex_);
  ++admitted_;
  queue_high_water_ = std::max(queue_high_water_, queue_depth);
}

void ServerMetrics::record_batch(std::size_t occupancy) {
  std::lock_guard lock(mutex_);
  ++batches_;
  batched_requests_ += occupancy;
  max_batch_occupancy_ = std::max(max_batch_occupancy_, occupancy);
}

void ServerMetrics::record_completed(double latency_seconds,
                                     RequestKind kind) {
  std::lock_guard lock(mutex_);
  ++completed_;
  ++completed_by_kind_[kind_index(kind)];
  latencies_.record(latency_seconds);
}

void ServerMetrics::record_failed(double latency_seconds) {
  std::lock_guard lock(mutex_);
  ++failed_;
  latencies_.record(latency_seconds);
}

std::size_t ServerMetrics::latency_samples_stored() const {
  std::lock_guard lock(mutex_);
  return latencies_.stored();
}

MetricsSnapshot ServerMetrics::snapshot() const {
  // The reservoir copy under the lock is bounded by its capacity; the
  // O(n log n) percentile sort happens outside the critical section.
  LatencyReservoir latencies;
  MetricsSnapshot s;
  {
    std::lock_guard lock(mutex_);
    s.submitted = submitted_;
    s.admitted = admitted_;
    s.rejected_full = rejected_full_;
    s.rejected_invalid = rejected_invalid_;
    s.rejected_shutdown = rejected_shutdown_;
    s.completed = completed_;
    s.failed = failed_;
    s.submitted_by_kind = submitted_by_kind_;
    s.completed_by_kind = completed_by_kind_;
    s.queue_high_water = queue_high_water_;
    s.batches = batches_;
    s.max_batch_occupancy = max_batch_occupancy_;
    s.mean_batch_occupancy =
        batches_ == 0 ? 0.0
                      : static_cast<double>(batched_requests_) /
                            static_cast<double>(batches_);
    latencies = latencies_;
  }
  s.latency = latencies.summarize();
  return s;
}

}  // namespace dwi::serve
