// Quickstart: generate gamma-distributed random numbers with the
// paper's decoupled-work-item FPGA design, functionally executed —
// each work-item's compute → transfer pair one task on the exec pool —
// and check the output distribution.
//
//   1. pick a Table I configuration (Config2: Marsaglia-Bray + MT521),
//   2. run the DecoupledWorkItems Task with 6 work-items,
//   3. read the packed 512-bit device buffer back as floats,
//   4. validate mean/variance against the CreditRisk+ sector model.
#include <iostream>

#include "core/decoupled_work_items.h"
#include "stats/moments.h"

int main() {
  using namespace dwi;

  // The sector variance of the paper's representative setup: v = 1.39,
  // i.e. Gamma(shape 1/1.39, scale 1.39) with unit mean.
  const float sector_variance = 1.39f;

  core::DecoupledConfig task;
  task.work_items = 6;                  // Config2's pipeline count
  task.floats_per_work_item = 65'536;   // outputs per work-item

  std::cout << "Generating " << task.work_items * task.floats_per_work_item
            << " gamma RNs on " << task.work_items
            << " decoupled work-item pipelines...\n";

  const auto result = core::run_gamma_task(task, [&](unsigned wid) {
    core::GammaWorkItemConfig cfg;
    cfg.app = rng::config(rng::ConfigId::kConfig2);
    cfg.sector_variances = {sector_variance};
    cfg.outputs_per_sector =
        static_cast<std::uint32_t>(task.floats_per_work_item);
    cfg.work_item_id = wid;
    cfg.seed = 2024;
    return cfg;
  });

  const auto values = result.to_floats();
  stats::RunningMoments m;
  for (float v : values) m.add(static_cast<double>(v));

  std::cout << "generated " << values.size() << " samples\n"
            << "mean     = " << m.mean() << "   (expected 1.0)\n"
            << "variance = " << m.variance() << "   (expected "
            << sector_variance << ")\n"
            << "min/max  = " << m.min() << " / " << m.max() << "\n";

  const bool ok = std::abs(m.mean() - 1.0) < 0.02 &&
                  std::abs(m.variance() - sector_variance) < 0.1;
  std::cout << (ok ? "OK: distribution matches the sector model\n"
                   : "WARNING: moments off\n");
  return ok ? 0 : 1;
}
