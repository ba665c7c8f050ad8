// Exact per-rank work counters.
//
// Ranks in this build are threads on one machine, so wall-clock time cannot
// show multi-node scaling. The algorithms therefore count the work they do —
// arcs scanned, ΔL evaluations, module-table updates, messages and bytes —
// and the cost model (cost_model.hpp) turns those counts into modeled
// parallel time. Counters are transport- and machine-independent, which is
// what makes the Figs. 8–10 shapes reproducible here.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/counters.hpp"

namespace dinfomap::perf {

struct WorkCounters {
  std::uint64_t arcs_scanned = 0;    ///< neighbor visits during move search
  std::uint64_t delta_evals = 0;     ///< candidate-module ΔL evaluations
  std::uint64_t module_updates = 0;  ///< module-table mutations
  std::uint64_t messages = 0;        ///< transport messages sent
  std::uint64_t bytes = 0;           ///< transport bytes sent

  void reset() { *this = WorkCounters{}; }

  WorkCounters& operator+=(const WorkCounters& o) {
    arcs_scanned += o.arcs_scanned;
    delta_evals += o.delta_evals;
    module_updates += o.module_updates;
    messages += o.messages;
    bytes += o.bytes;
    return *this;
  }
  friend WorkCounters operator+(WorkCounters a, const WorkCounters& b) {
    a += b;
    return a;
  }
};

/// Fold per-rank comm totals into per-rank work counters — the post-job step
/// every distributed driver performs after Runtime::run returns its report.
inline void add_comm_totals(std::vector<WorkCounters>& work,
                            const std::vector<comm::CommCounters>& comm) {
  const std::size_t n = work.size() < comm.size() ? work.size() : comm.size();
  for (std::size_t r = 0; r < n; ++r) {
    work[r].messages += comm[r].total_messages();
    work[r].bytes += comm[r].total_bytes();
  }
}

}  // namespace dinfomap::perf
