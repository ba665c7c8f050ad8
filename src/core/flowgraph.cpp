#include "core/flowgraph.hpp"

#include <cmath>

#include "util/check.hpp"

namespace dinfomap::core {

FlowGraph make_flow_graph(const Csr& graph) {
  DINFOMAP_REQUIRE_MSG(graph.num_vertices() > 0, "empty graph");
  const double two_w = 2.0 * graph.total_link_weight();
  DINFOMAP_REQUIRE_MSG(two_w > 0, "graph has no non-self edges");

  const VertexId n = graph.num_vertices();

  // Rebuild the CSR with flow weights.
  std::vector<graph::EdgeIndex> offsets = graph.offsets();
  std::vector<graph::Neighbor> adjacency = graph.adjacency();
  for (auto& nb : adjacency) nb.weight /= two_w;
  std::vector<double> self(n);
  for (VertexId u = 0; u < n; ++u) self[u] = graph.self_weight(u) / two_w;

  FlowGraph fg;
  fg.csr = Csr(std::move(offsets), std::move(adjacency), std::move(self));
  fg.node_flow.resize(n);
  fg.node_term = 0;
  for (VertexId u = 0; u < n; ++u) {
    fg.node_flow[u] = fg.csr.weighted_degree(u) + fg.csr.self_weight(u);
    fg.node_term += plogp(fg.node_flow[u]);
  }
  return fg;
}

bool validate_flow_graph(const FlowGraph& fg, bool level0) {
  const VertexId n = fg.num_vertices();
  if (fg.node_flow.size() != n) return false;
  double sum = 0;
  for (VertexId u = 0; u < n; ++u) {
    if (fg.node_flow[u] < 0) return false;
    // Node flow covers at least the vertex's own non-self arc flow; the
    // remainder is self flow carried from finer levels.
    if (fg.node_flow[u] + 1e-12 < fg.out_flow(u)) return false;
    sum += fg.node_flow[u];
  }
  if (std::abs(sum - 1.0) > 1e-9) return false;
  if (level0) {
    double term = 0;
    for (VertexId u = 0; u < n; ++u) term += plogp(fg.node_flow[u]);
    if (std::abs(term - fg.node_term) > 1e-9) return false;
  }
  return true;
}

}  // namespace dinfomap::core
