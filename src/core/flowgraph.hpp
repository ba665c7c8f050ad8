// FlowGraph: a CSR whose arc weights are *flows* (normalized by 2W at level
// 0) plus per-vertex node flows (visit probabilities). Because everything is
// pre-normalized, coarsening is pure summation and the map-equation formulas
// are level-independent.
#pragma once

#include <vector>

#include "core/mapequation.hpp"
#include "graph/csr.hpp"

namespace dinfomap::core {

using graph::Csr;
using graph::VertexId;

struct FlowGraph {
  Csr csr;                        ///< arc weights are flows (w/2W at level 0)
  std::vector<double> node_flow;  ///< p_α per vertex; sums to 1
  double node_term = 0;           ///< Σ plogp(p_α) over LEVEL-0 vertices

  [[nodiscard]] VertexId num_vertices() const { return csr.num_vertices(); }

  /// Total flow on u's non-self arcs (its exit probability when alone).
  [[nodiscard]] double out_flow(VertexId u) const { return csr.weighted_degree(u); }

  /// Flow retained by u's self-loops (intra weight carried by coarsening).
  [[nodiscard]] double self_flow(VertexId u) const { return csr.self_weight(u); }
};

/// Lift a plain undirected graph to flows: arc flow = w/(2W_links),
/// node flow = weighted_degree/(2W_links) + self-loop flow, where W_links
/// excludes self-loops (paper §2.2: "self-connected edges excluded").
///
/// Note on the paper's Line 3 (p_u = degree(u)/|E|): that normalization sums
/// to 2 over all vertices; we use the standard w_u/2W so Σ p_α = 1. This
/// rescales L(M) uniformly and changes no decision the algorithm makes.
FlowGraph make_flow_graph(const Csr& graph);

/// Consistency audit for tests: node flows sum to 1, every vertex's node
/// flow ≥ its out flow (self flow non-negative), node_term matches when
/// `level0` is true.
bool validate_flow_graph(const FlowGraph& fg, bool level0);

}  // namespace dinfomap::core
