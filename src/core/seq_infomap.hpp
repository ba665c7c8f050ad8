// Sequential Infomap (Algorithm 1 of the paper): greedy map-equation
// minimization with hierarchical agglomeration.
#pragma once

#include <cstdint>
#include <vector>

#include "core/flowgraph.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace dinfomap::core {

struct InfomapConfig {
  /// Outer-loop improvement threshold θ (Alg. 1 line 31).
  double theta = 1e-10;
  int max_outer_iterations = 20;
  /// Bound on inner move passes per level (Alg. 1 lines 15–23).
  int max_inner_passes = 64;
  /// Minimal |ΔL| for a move to count as an improvement.
  double move_epsilon = 1e-14;
  /// Seed for the per-level vertex-order shuffle (Alg. 1 line 13).
  std::uint64_t seed = 42;
  /// Single-node fine-tuning (Rosvall's refinement): after the agglomerative
  /// levels converge, sweep level-0 vertices between the final modules until
  /// no move improves L. Never worsens the result. Off by default to match
  /// the paper's Algorithm 1 exactly (the Figs. 4–5 reference).
  bool fine_tune = false;
  /// Submodule coarse-tuning (Rosvall's second refinement): split each final
  /// module into candidate submodules and let whole submodules move between
  /// modules. Never worsens the result; off by default (see fine_tune).
  bool coarse_tune = false;
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
  /// equals `assignment`, including fine-tuning). Feeds the hierarchical
  /// .tree writer.
  std::vector<graph::Partition> level_assignments;
  /// Vertices relocated by the fine-tuning sweep (0 when disabled).
  std::uint64_t fine_tune_moves = 0;
  /// Submodules relocated by the coarse-tuning sweep (0 when disabled).
  std::uint64_t coarse_tune_moves = 0;

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
