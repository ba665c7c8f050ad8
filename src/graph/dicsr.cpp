#include "graph/dicsr.hpp"

#include <algorithm>
#include <cmath>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace dinfomap::graph {

DiCsr DiCsr::from_edges(const EdgeList& edges, VertexId num_vertices) {
  VertexId n = num_vertices;
  for (const Edge& e : edges) n = std::max({n, e.u + 1, e.v + 1});
  DINFOMAP_REQUIRE_MSG(n > 0, "empty directed graph");
  for (const Edge& e : edges)
    DINFOMAP_REQUIRE_MSG(std::isfinite(e.w) && e.w > 0,
                         "edge weights must be finite and positive");

  // Combine parallel arcs, summing in input order.
  std::vector<Edge> sorted = edges;
  sort_by_endpoints(sorted, n);
  std::size_t out = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (out > 0 && sorted[out - 1].u == sorted[i].u &&
        sorted[out - 1].v == sorted[i].v) {
      sorted[out - 1].w += sorted[i].w;
    } else {
      sorted[out++] = sorted[i];
    }
  }
  sorted.resize(out);

  DiCsr g;
  g.out_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  g.in_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : sorted) {
    ++g.out_offsets_[e.u + 1];
    ++g.in_offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) {
    g.out_offsets_[i] += g.out_offsets_[i - 1];
    g.in_offsets_[i] += g.in_offsets_[i - 1];
  }
  g.out_adj_.resize(sorted.size());
  g.in_adj_.resize(sorted.size());
  std::vector<EdgeIndex> oc(g.out_offsets_.begin(), g.out_offsets_.end() - 1);
  std::vector<EdgeIndex> ic(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (const Edge& e : sorted) {
    g.out_adj_[oc[e.u]++] = {e.v, e.w};
    g.in_adj_[ic[e.v]++] = {e.u, e.w};
  }
  g.out_weight_.assign(n, 0.0);
  for (VertexId u = 0; u < n; ++u)
    for (const auto& nb : g.out_neighbors(u)) g.out_weight_[u] += nb.weight;
  return g;
}

bool DiCsr::validate() const {
  const VertexId n = num_vertices();
  EdgeList fwd, rev;
  for (VertexId u = 0; u < n; ++u) {
    for (const auto& nb : out_neighbors(u)) {
      if (nb.target >= n || !(nb.weight > 0)) return false;
      fwd.push_back({u, nb.target, nb.weight});
    }
    for (const auto& nb : in_neighbors(u)) {
      if (nb.target >= n || !(nb.weight > 0)) return false;
      rev.push_back({nb.target, u, nb.weight});
    }
  }
  sort_by_endpoints(fwd, n);
  sort_by_endpoints(rev, n);
  return fwd == rev;
}

}  // namespace dinfomap::graph
