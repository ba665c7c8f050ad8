// Distributed Louvain baseline — the modularity-based family the paper's
// related work contrasts with (Wickramaarachchi et al. 2014; Zeng & Yu
// 2015/2016). Runs on the same comm substrate as the distributed Infomap:
// 1D-partitioned synchronous rounds with ghost label exchange and exact
// community-mass reduction at community homes, centralized contraction
// between levels (as in the cited MPI implementations).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph_view.hpp"
#include "graph/types.hpp"
#include "perf/work_counters.hpp"

namespace dinfomap::core {

struct DistLouvainConfig {
  int num_ranks = 4;
  double min_gain = 1e-9;
  int max_levels = 16;
  int max_rounds = 64;
  std::uint64_t seed = 42;
};

struct DistLouvainResult {
  graph::Partition assignment;  ///< level-0 vertex → community (dense ids)
  double modularity = 0;
  int levels = 0;
  int total_rounds = 0;
  double wall_seconds = 0;
  std::vector<perf::WorkCounters> work_per_rank;
};

/// Level 0 streams flows straight from the view (resident CSR or
/// out-of-core block file) without materializing a flow-weighted CSR, and
/// coarser levels run on the vertex-proportional contracted FlowGraph.
/// Results are bit-identical across backends.
DistLouvainResult distributed_louvain(const graph::GraphView& graph,
                                      int num_ranks);
DistLouvainResult distributed_louvain(const graph::GraphView& graph,
                                      const DistLouvainConfig& config);

}  // namespace dinfomap::core
