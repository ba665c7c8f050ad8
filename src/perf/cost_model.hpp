// α-β machine model: modeled time = compute(work) + α·messages + β·bytes.
//
// Defaults approximate a ~2010s HPC node (the paper ran on Titan's 2.2 GHz
// Opterons with a Gemini interconnect): tens of ns per graph operation, µs
// message latency, multi-GB/s bandwidth. Absolute values are not the claim —
// the *relative* shapes (who wins, how the breakdown shifts with p) are.
#pragma once

#include <algorithm>
#include <vector>

#include "perf/work_counters.hpp"

namespace dinfomap::perf {

struct CostModel {
  double sec_per_arc = 2.0e-8;            ///< neighbor scan step
  double sec_per_delta = 4.0e-8;          ///< one ΔL evaluation
  double sec_per_module_update = 2.5e-8;  ///< module-table mutation
  double alpha = 2.0e-6;                  ///< per-message latency
  double beta = 2.5e-10;                  ///< per-byte (≈4 GB/s)

  [[nodiscard]] double compute_seconds(const WorkCounters& w) const {
    return static_cast<double>(w.arcs_scanned) * sec_per_arc +
           static_cast<double>(w.delta_evals) * sec_per_delta +
           static_cast<double>(w.module_updates) * sec_per_module_update;
  }
  [[nodiscard]] double comm_seconds(const WorkCounters& w) const {
    return static_cast<double>(w.messages) * alpha +
           static_cast<double>(w.bytes) * beta;
  }
  [[nodiscard]] double seconds(const WorkCounters& w) const {
    return compute_seconds(w) + comm_seconds(w);
  }
};

/// Bulk-synchronous step time: the slowest rank gates everyone.
double bsp_seconds(const std::vector<WorkCounters>& per_rank,
                   const CostModel& model = {});

}  // namespace dinfomap::perf
