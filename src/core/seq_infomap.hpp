// Sequential Infomap (Algorithm 1 of the paper): greedy map-equation
// minimization with hierarchical agglomeration.
#pragma once

#include <cstdint>
#include <vector>

#include "core/flowgraph.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace dinfomap::core {

/// The level and pass caps, θ and the move threshold are the constants of
/// core/mapequation.hpp (kSeqMaxLevels, kSeqMaxPasses, kTheta, kMoveEpsilon).
struct InfomapConfig {
  /// Seed for the per-level vertex-order shuffle (Alg. 1 line 13).
  std::uint64_t seed = 42;
};

/// One row of the convergence trace (drives Figs. 4 and 5).
struct OuterIterationInfo {
  int level = 0;
  graph::VertexId level_vertices = 0;  ///< |V^k|
  graph::VertexId num_modules = 0;     ///< modules after the move phase
  double codelength_before = 0;        ///< L at singleton init of this level
  double codelength_after = 0;         ///< L after the move phase
  int inner_passes = 0;
  std::uint64_t moves = 0;
};

struct InfomapResult {
  /// Level-0 vertex → final module (dense ids 0..k-1).
  graph::Partition assignment;
  double codelength = 0;
  /// L of the all-singletons partition at level 0 (upper bound).
  double singleton_codelength = 0;
  std::vector<OuterIterationInfo> trace;
  /// assignment after each outer level: level_assignments[k][v] = module of
  /// level-0 vertex v after level k (coarser as k grows; the last entry
  /// equals `assignment`). Feeds the hierarchical .tree writer.
  std::vector<graph::Partition> level_assignments;

  [[nodiscard]] graph::VertexId num_modules() const {
    graph::VertexId k = 0;
    for (auto m : assignment) k = std::max(k, m + 1);
    return k;
  }
};

InfomapResult sequential_infomap(const graph::Csr& graph,
                                 const InfomapConfig& config = {});

/// Evaluate L(M) of an arbitrary assignment on `fg` from scratch (no
/// incremental state) — the reference the incremental path is tested against,
/// and the tool for scoring distributed results.
double codelength_of_partition(const FlowGraph& fg,
                               const std::vector<graph::VertexId>& module_of);

/// One level of greedy map-equation clustering directly on an existing
/// FlowGraph (honoring its carried node flows and self flows, which
/// make_flow_graph would discard). Used by the hierarchical search to group
/// modules into super-modules. Returns the module per vertex (labels are
/// vertex ids).
graph::Partition cluster_flow_graph(const FlowGraph& fg,
                                    const InfomapConfig& config = {});

}  // namespace dinfomap::core
