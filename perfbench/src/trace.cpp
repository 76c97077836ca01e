#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

/// Small dense thread numbers for the trace viewer's rows.
std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1) + 1;
  return mine;
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

void Tracer::record(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::uint64_t request, Clock::time_point start,
                    Clock::time_point end) {
  Span s{name, id, parent, request, thread_number(), start, end};
  std::lock_guard lock(mutex_);
  spans_.push_back(s);
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<Span> spans;
  {
    std::lock_guard lock(mutex_);
    spans = spans_;
  }
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }

  std::map<std::string, double> out;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
  for (const Span& s : spans) {
    const double dur = seconds_between(s.start, s.end);
    // Children may run on other threads and overlap each other: merge
    // their intervals, clipped to the parent, before subtracting.
    cover.clear();
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const auto a = std::max(spans[c].start, s.start);
        const auto b = std::min(spans[c].end, s.end);
        if (a < b) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    for (std::size_t i = 0; i < cover.size();) {
      auto a = cover[i].first;
      auto b = cover[i].second;
      for (++i; i < cover.size() && cover[i].first <= b; ++i) {
        b = std::max(b, cover[i].second);
      }
      covered += seconds_between(a, b);
    }
    out[s.name] += dur - covered;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard lock(mutex_);
    spans = spans_;
  }
  std::ofstream f(path);
  if (!f) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const std::string cat = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name, cat.c_str(), s.thread,
                  us(s.start), us(s.end) - us(s.start),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
