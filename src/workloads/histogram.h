// Histogram with read-after-write hazards — the zoo's address-collision
// kernel (sycl-playground's data-hazard exemplar, SNIPPETS.md).
//
// Two decoupled work-items: a fetch stage streams (bin, weight) updates
// through a FIFO (a RingBuffer polled once per modeled cycle) into an
// update stage that performs the read-modify-write
// `bins[bin] += weight`. The RMW takes `chain_latency` cycles (load,
// float add, store), so an update whose bin equals one still in flight
// is a RAW hazard:
//   kStatic  — the scheduler cannot prove two consecutive bins differ,
//     so it spaces EVERY update by chain_latency (II = chain_latency).
//   kDynamic — updates issue at II = 1; a ForwardingBuffer snoops each
//     bin against the in-flight window and only an ACTUAL collision
//     stalls, for `forward_stall` cycles, taking the in-flight sum off
//     the adder bypass instead of waiting for the store.
// Both modes apply updates in trace order, so the bins are bit-identical
// to histogram_oracle() — scheduling moves cycles, never values.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/scheduling.h"

namespace dwi::workloads {

struct HistogramConfig {
  std::uint32_t num_bins = 256;
  SchedulingMode mode = SchedulingMode::kDynamic;
  /// Cycles of the load→add→store chain on one bin.
  unsigned chain_latency = 4;
  /// Bubble cycles a forwarded collision costs under kDynamic (the
  /// bypass-mux delay); must be < chain_latency for forwarding to pay.
  unsigned forward_stall = 1;
  /// Depth of the fetch→update FIFO.
  std::size_t stream_depth = 8;
};

struct HistogramOutput {
  std::vector<float> bins;
  WorkloadStats stats;
};

/// Cycle-level run of the two-work-item histogram. `addrs[i]` must be
/// < cfg.num_bins; `addrs` and `weights` must have equal length.
HistogramOutput run_histogram(const HistogramConfig& cfg,
                              const std::vector<std::uint32_t>& addrs,
                              const std::vector<float>& weights);

/// Scalar host oracle: the same updates in the same order, no timing.
std::vector<float> histogram_oracle(std::uint32_t num_bins,
                                    const std::vector<std::uint32_t>& addrs,
                                    const std::vector<float>& weights);

/// An update trace plus the generator that derives one from any uniform
/// u32 source (serve substreams, bench PRNGs) — two draws per update,
/// so consumption is deterministic.
struct HistogramTrace {
  std::vector<std::uint32_t> addrs;
  std::vector<float> weights;
};

/// `hot_fraction` of updates land on bin 0 (the colliding-trace knob
/// of the static-vs-dynamic comparison); the rest spread uniformly.
template <typename NextU32>
HistogramTrace make_histogram_trace(std::uint32_t updates,
                                    std::uint32_t num_bins,
                                    float hot_fraction, NextU32&& next) {
  HistogramTrace t;
  t.addrs.reserve(updates);
  t.weights.reserve(updates);
  const auto threshold = static_cast<std::uint64_t>(
      static_cast<double>(hot_fraction) * 4294967296.0);
  for (std::uint32_t i = 0; i < updates; ++i) {
    const std::uint32_t pick = next();
    const std::uint32_t raw_weight = next();
    const bool hot = static_cast<std::uint64_t>(pick) < threshold;
    t.addrs.push_back(hot ? 0u : pick % num_bins);
    // 24-bit mantissa load keeps the weight exact in a float.
    t.weights.push_back(static_cast<float>(raw_weight >> 8) *
                        (1.0f / 16777216.0f));
  }
  return t;
}

}  // namespace dwi::workloads
