// Ablation: where does the design's elasticity live?
//
// Two buffers sit between a work-item's pipeline and the shared memory
// channel: the hls::stream FIFO (Listing 1) and the LTRANSF burst
// buffer, which Listing 4's `#pragma HLS DEPENDENCE variable=transfBuf
// false` lets the tool double-buffer. This bench separates their
// contributions:
//
//   * WITH the pragma (double-buffered), collection overlaps the
//     in-flight burst and the transfer unit drains the stream at a
//     constant 1 float/cycle — the stream depth is then irrelevant;
//   * WITHOUT it, collection stalls for the whole burst service
//     (turnaround + beats cycles), the stall propagates into the
//     stream, and only a deep stream can hide it.
//
// Conclusion: the pragma, not the FIFO, is what makes Fig 3's
// interleaving work — and it is cheaper (one extra LTRANSF buffer vs a
// deep FIFO per work-item).
#include <iostream>
#include <memory>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "common/table.h"
#include "fpga/device.h"
#include "fpga/kernel_sim.h"

int main(int argc, char** argv) {
  using namespace dwi;

  // Pure device simulation with fixed producer seeds: --seed and
  // --threads are parsed for CLI uniformity only; the cycle counts are
  // exact.
  const auto args = bench::parse_bench_args(
      argc, argv, "ablation_stream_depth", "BENCH_ablation_stream_depth.json");
  if (!args) return 2;
  const auto& dev = fpga::adm_pcie_7v3();
  const std::uint64_t full_outputs = 2'621'440ull * 240ull;

  std::cout << "=== Ablation: transfer double-buffering (DEPENDENCE "
               "false) x stream depth ===\n"
               "(6 WI, 16-beat bursts, 23% rejection — the Config1 "
               "operating point)\n\n";
  TextTable t;
  t.set_header({"transfBuf", "Stream depth", "Runtime [ms]",
                "Compute stalls", "Bandwidth [GB/s]"});
  struct Row {
    bool double_buffered;
    std::size_t depth;
    double runtime_ms, stall_frac, bandwidth_gbs;
  };
  std::vector<Row> rows;
  for (bool double_buffered : {true, false}) {
    for (std::size_t depth : {2u, 16u, 64u, 256u, 1024u}) {
      fpga::KernelSimConfig cfg;
      cfg.work_items = 6;
      cfg.burst_beats = 16;
      cfg.stream_depth = depth;
      cfg.transfer_double_buffered = double_buffered;
      cfg.outputs_per_work_item = (full_outputs / 512) / cfg.work_items;
      const auto r = fpga::simulate_kernel(cfg, [](unsigned w) {
        return std::make_unique<fpga::BernoulliProducer>(0.766, 13 + w);
      });
      const double ms =
          fpga::extrapolate_seconds(r, full_outputs, dev.clock_hz) * 1e3;
      const double stall = static_cast<double>(r.compute_stall_cycles) /
                           (static_cast<double>(r.cycles) * cfg.work_items);
      const Row row{double_buffered, depth, ms, stall,
                    r.bandwidth_bytes(dev.clock_hz) / 1e9};
      rows.push_back(row);
      t.add_row({double_buffered ? "double (pragma)" : "single (no pragma)",
                 TextTable::integer(static_cast<long long>(depth)),
                 TextTable::num(ms, 0), TextTable::percent(stall, 2),
                 TextTable::num(row.bandwidth_gbs, 2)});
    }
    t.add_separator();
  }
  t.render(std::cout);
  std::cout << "\nWith the DEPENDENCE-false pragma the stream depth is "
               "irrelevant (the burst buffer absorbs the channel); "
               "without it, collection freezes during every burst and "
               "only a very deep stream claws the time back — the "
               "paper's Listing 4 pragma is load-bearing.\n";

  if (auto jf = bench::open_bench_json(args->json_path)) {
    bench::JsonWriter j(jf);
    j.begin_object();
    bench::write_bench_header(j, "ablation_stream_depth", args->seed);
    j.key("rows").begin_array();
    for (const Row& r : rows) {
      j.begin_object();
      j.kv("double_buffered", r.double_buffered);
      j.kv("stream_depth", static_cast<std::uint64_t>(r.depth));
      j.kv("runtime_ms", r.runtime_ms);
      j.kv("compute_stall_frac", r.stall_frac);
      j.kv("bandwidth_gbs", r.bandwidth_gbs);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    jf << "\n";
    std::cout << "Wrote " << args->json_path << "\n";
  }
  return 0;
}
