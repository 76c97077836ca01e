#include "workloads/spmv.h"

#include "common/error.h"
#include "hls/stream.h"

namespace dwi::workloads {

namespace {

struct RowRange {
  std::uint32_t row = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

void check_matrix(const CsrMatrix& m, const std::vector<float>& x) {
  DWI_REQUIRE(m.row_ptr.size() == static_cast<std::size_t>(m.rows) + 1,
              "spmv: row_ptr must have rows+1 entries");
  DWI_REQUIRE(!m.row_ptr.empty() && m.row_ptr.front() == 0,
              "spmv: row_ptr[0] must be 0");
  DWI_REQUIRE(m.col_idx.size() == m.values.size() &&
                  m.col_idx.size() == static_cast<std::size_t>(m.nnz()),
              "spmv: col_idx/values must hold nnz entries");
  DWI_REQUIRE(x.size() == static_cast<std::size_t>(m.cols),
              "spmv: x must have cols entries");
}

}  // namespace

std::vector<float> spmv_oracle(const CsrMatrix& m,
                               const std::vector<float>& x) {
  check_matrix(m, x);
  std::vector<float> y(m.rows, 0.0f);
  for (std::uint32_t r = 0; r < m.rows; ++r) {
    float acc = 0.0f;
    for (std::uint32_t e = m.row_ptr[r]; e < m.row_ptr[r + 1]; ++e) {
      DWI_REQUIRE(m.col_idx[e] < m.cols, "spmv: column out of range");
      acc += m.values[e] * x[m.col_idx[e]];
    }
    y[r] = acc;
  }
  return y;
}

SpmvOutput run_spmv(const SpmvConfig& cfg, const CsrMatrix& m,
                    const std::vector<float>& x) {
  DWI_REQUIRE(cfg.add_latency >= 1, "spmv: add latency >= 1");
  check_matrix(m, x);

  SpmvOutput out;
  out.y.assign(m.rows, 0.0f);
  WorkloadStats& stats = out.stats;

  hls::stream<RowRange> rows(cfg.stream_depth, "spmv.rows");
  std::uint32_t next_fetch = 0;  // next row the pointer work-item sends

  if (cfg.mode == SchedulingMode::kDynamic && m.rows > 0) {
    stats.cycles += cfg.pipeline_latency;  // one-time pipeline fill
  }

  for (std::uint32_t r = 0; r < m.rows; ++r) {
    // Row-pointer work-item: stay up to stream_depth rows ahead.
    while (next_fetch < m.rows &&
           rows.write_nb(RowRange{next_fetch, m.row_ptr[next_fetch],
                                  m.row_ptr[next_fetch + 1]})) {
      ++next_fetch;
    }

    RowRange range;
    const bool got = rows.read_nb(range);
    DWI_ASSERT(got);
    const std::uint32_t nnz = range.end - range.begin;

    // MAC work-item: accumulate in CSR order (both modes).
    float acc = 0.0f;
    for (std::uint32_t e = range.begin; e < range.end; ++e) {
      DWI_REQUIRE(m.col_idx[e] < m.cols, "spmv: column out of range");
      acc += m.values[e] * x[m.col_idx[e]];
    }
    out.y[range.row] = acc;
    ++stats.initiations;

    if (cfg.mode == SchedulingMode::kStatic) {
      // Variable trip count: II = add_latency inside the row (the
      // accumulator recurrence), then the pipeline drains before the
      // next row may issue.
      stats.cycles += static_cast<std::uint64_t>(nnz) * cfg.add_latency +
                      cfg.pipeline_latency;
      if (nnz > 0) {
        stats.hazard_stall_cycles +=
            static_cast<std::uint64_t>(nnz) * (cfg.add_latency - 1);
      }
      // Drain cycles: the MAC pipe runs empty at the row boundary.
      stats.pipe_empty_stall_cycles += cfg.pipeline_latency;
    } else {
      // Rows stream back-to-back at II = 1; only a row shorter than
      // the adder latency waits for its final sum to retire before
      // y[r] stores.
      stats.cycles += nnz > 0 ? nnz : 1u;
      if (nnz > 0 && nnz < cfg.add_latency) {
        const std::uint32_t tail = cfg.add_latency - nnz;
        stats.cycles += tail;
        stats.hazard_stall_cycles += tail;
      }
    }
  }

  // The pointer work-item issues one range per cycle and then blocks on
  // the full stream while the MAC side catches up.
  if (stats.cycles > m.rows) {
    stats.pipe_full_stall_cycles = stats.cycles - m.rows;
  }
  return out;
}

}  // namespace dwi::workloads
