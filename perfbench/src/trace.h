// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into each
// layer's public functions (the library itself carries no tracing).
// They stay in memory until the run ends, then go out as a Chrome
// Trace Event file and as per-name self times: a span's self time is
// its duration minus the part of it that its children cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
  const char* name = "";   ///< "<layer>.<call>", a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request / pass / call id
  std::uint32_t thread = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  Tracer();

  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }

  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t request, Clock::time_point start,
              Clock::time_point end);

  /// Self seconds summed by span name: each span's duration minus the
  /// union of its children's intervals, clipped to the span.
  std::map<std::string, double> self_seconds() const;

  /// Write every span as a Chrome Trace Event ("X" complete events).
  bool write_chrome_trace(const std::string& path) const;

  std::size_t size() const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span. A null tracer makes it a no-op, so timed code paths can
/// be shared between the traced and the untraced run.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t parent,
        std::uint64_t request)
      : tracer_(tracer),
        name_(name),
        id_(tracer != nullptr ? tracer->new_id() : 0),
        parent_(parent),
        request_(request),
        start_(tracer != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, id_, parent_, request_, start_, Clock::now());
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t request_;
  Clock::time_point start_;
};

}  // namespace perfbench
