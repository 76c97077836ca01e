// Ablation: §III-E buffer-combining strategies. Host-level combining
// issues one read request per work-item buffer; device-level combining
// (the paper's choice) assigns the same device buffer to every
// work-item with wid-based offsets and needs a single read. Shows the
// host-side cost difference and the functional equivalence of the two
// layouts.
#include <iostream>

#include "common/table.h"
#include "core/decoupled_work_items.h"
#include "minicl/runtime.h"

int main() {
  using namespace dwi;

  std::cout << "=== Ablation: combining result buffers at host vs device "
               "level (SS III-E) ===\n\n";

  const std::uint64_t total_bytes = 2'500'000'000ull;  // the paper's 2.5 GB
  auto fpga = minicl::find_device("FPGA");

  TextTable t;
  t.set_header({"Strategy", "Read requests", "Host read time [ms]",
                "Overhead vs device-level"});
  double device_ms = 0.0;
  for (unsigned n : {1u, 2u, 4u, 6u, 8u}) {
    minicl::CommandQueue q(*fpga);
    auto e = q.enqueue_read(total_bytes, minicl::BufferCombining::kHostLevel,
                            n);
    const double ms = e->duration() * 1e3;
    if (n == 1) device_ms = ms;  // 1 request == device-level combining
    t.add_row({n == 1 ? "device-level (1 buffer)"
                      : "host-level (" + std::to_string(n) + " buffers)",
               TextTable::integer(n), TextTable::num(ms, 2),
               TextTable::num((ms - device_ms) / device_ms * 100, 3) + "%"});
  }
  t.render(std::cout);
  std::cout << "\nDevice-side cost of sharing one buffer across work-items: "
               "<1% (paper, SS III-E2) — the shared-buffer offsets do not "
               "change the burst pattern, so the kernel simulation is "
               "identical by construction.\n";

  // Functional equivalence of the two layouts.
  std::cout << "\n--- Functional check: both strategies yield the same host "
               "buffer ---\n";
  const std::uint64_t floats_per_wi = 512;
  std::vector<std::vector<core::MemoryWord>> per_wi(4);
  for (unsigned wid = 0; wid < 4; ++wid) {
    per_wi[wid].resize(floats_per_wi / 16);
    core::MemoryWord acc;
    unsigned lane = 0;
    std::uint64_t word = 0;
    for (std::uint64_t i = 0; i < floats_per_wi; ++i) {
      if (core::pack_g512(&acc, static_cast<float>(wid * 10000 + i), &lane)) {
        per_wi[wid][word++] = acc;
      }
    }
  }
  const auto host = core::combine_buffers_at_host(per_wi, floats_per_wi);

  core::DecoupledConfig dcfg;
  dcfg.work_items = 4;
  dcfg.floats_per_work_item = floats_per_wi;
  const auto device = core::run_decoupled_work_items(
      dcfg, [](unsigned wid, core::TransferUnit& out, std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
          out.write(static_cast<float>(wid * 10000 + i));
        }
      });
  const auto device_floats = device.to_floats();
  bool equal = device_floats.size() == host.size();
  for (std::size_t i = 0; equal && i < host.size(); ++i) {
    equal = host[i] == device_floats[i];
  }
  std::cout << (equal ? "PASS" : "FAIL")
            << ": host-level and device-level combining produce identical "
               "host buffers ("
            << host.size() << " floats compared)\n";
  return equal ? 0 : 1;
}
