#include "core/coarsen.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "util/check.hpp"

namespace dinfomap::core {

CoarsenResult coarsen(const FlowGraph& fine,
                      const std::vector<VertexId>& module_of) {
  const VertexId n = fine.num_vertices();
  DINFOMAP_REQUIRE_MSG(module_of.size() == n, "coarsen: assignment size mismatch");

  // Dense relabeling: ascending module id → 0..k-1 (deterministic).
  std::vector<VertexId> sorted_ids(module_of);
  std::sort(sorted_ids.begin(), sorted_ids.end());
  sorted_ids.erase(std::unique(sorted_ids.begin(), sorted_ids.end()),
                   sorted_ids.end());
  std::unordered_map<VertexId, VertexId> dense;
  dense.reserve(sorted_ids.size());
  for (VertexId i = 0; i < sorted_ids.size(); ++i) dense[sorted_ids[i]] = i;
  const auto k = static_cast<VertexId>(sorted_ids.size());

  CoarsenResult result;
  result.fine_to_coarse.resize(n);
  for (VertexId u = 0; u < n; ++u) result.fine_to_coarse[u] = dense.at(module_of[u]);

  // Aggregate arc flows between coarse vertices; ordered map per source keeps
  // adjacency sorted by construction.
  std::vector<double> self(k, 0.0);
  std::vector<double> node_flow(k, 0.0);
  std::vector<std::map<VertexId, double>> coarse_adj(k);
  for (VertexId u = 0; u < n; ++u) {
    const VertexId cu = result.fine_to_coarse[u];
    node_flow[cu] += fine.node_flow[u];
    self[cu] += fine.self_flow(u);
    for (const auto& nb : fine.csr.neighbors(u)) {
      const VertexId cv = result.fine_to_coarse[nb.target];
      if (cu == cv) {
        // Each undirected intra edge is visited from both endpoints; count
        // its self-loop contribution once (halve the double visit).
        self[cu] += nb.weight / 2.0;
      } else {
        coarse_adj[cu][cv] += nb.weight;
      }
    }
  }

  std::vector<graph::EdgeIndex> offsets(static_cast<std::size_t>(k) + 1, 0);
  for (VertexId c = 0; c < k; ++c)
    offsets[c + 1] = offsets[c] + coarse_adj[c].size();
  std::vector<graph::Neighbor> adjacency;
  adjacency.reserve(offsets.back());
  for (VertexId c = 0; c < k; ++c)
    for (const auto& [target, flow] : coarse_adj[c])
      adjacency.push_back({target, flow});

  result.graph.csr = Csr(std::move(offsets), std::move(adjacency), std::move(self));
  result.graph.node_flow = std::move(node_flow);
  result.graph.node_term = fine.node_term;  // level-0 term is invariant
  return result;
}

}  // namespace dinfomap::core
