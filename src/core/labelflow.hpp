// Label-flow baseline: a GossipMap-style distributed community detector.
//
// GossipMap (Bae & Howe, SC'15) — the paper's "previous state of the art" for
// Table 3 — is built on GraphLab and unavailable here. This baseline captures
// its operating point: synchronous flow-weighted label propagation over a
// plain 1D partition (no delegates), multi-level with centralized merging.
// It is run over the same comm substrate so runtimes and communication
// volumes compare apples-to-apples with the distributed Infomap.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/counters.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "perf/work_counters.hpp"

namespace dinfomap::core {

struct LabelFlowConfig {
  std::uint64_t seed = 42;  ///< tie-break draws, per rank and level
};

struct LabelFlowResult {
  graph::Partition assignment;  ///< level-0 vertex → community (dense ids)
  double codelength = 0;        ///< map-equation score of the result
  int total_rounds = 0;
  double wall_seconds = 0;
  std::vector<perf::WorkCounters> work_per_rank;  ///< compute + comm volume
};

LabelFlowResult distributed_labelflow(const graph::Csr& graph, int num_ranks,
                                      const LabelFlowConfig& config = {});

}  // namespace dinfomap::core
