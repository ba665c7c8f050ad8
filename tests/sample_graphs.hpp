// Small planted-structure graphs shared by the engine tests and the
// sequential golden pins.
#pragma once

#include <cstdint>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "util/random.hpp"

namespace dinfomap::testing {

/// k directed cliques (all ordered pairs) in a weak ring.
inline graph::EdgeList directed_clique_ring(graph::VertexId k,
                                            graph::VertexId size) {
  graph::EdgeList edges;
  for (graph::VertexId c = 0; c < k; ++c) {
    const graph::VertexId base = c * size;
    for (graph::VertexId i = 0; i < size; ++i)
      for (graph::VertexId j = 0; j < size; ++j)
        if (i != j) edges.push_back({base + i, base + j, 1.0});
    edges.push_back({base, ((c + 1) % k) * size, 0.1});
  }
  return edges;
}

/// Nested structure: 8 groups, each an SBM of 8 dense blocks of 8 vertices.
/// Hierarchy pays when there are *many* modules (the flat index codebook is
/// expensive) with locality among them — the regime of Rosvall &
/// Bergstrom's multilevel paper.
inline graph::Csr nested_graph(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const graph::VertexId groups = 8, blocks = 8, bs = 8;
  const graph::VertexId n = groups * blocks * bs;
  graph::EdgeList edges;
  auto group_of = [&](graph::VertexId v) { return v / (blocks * bs); };
  auto block_of = [&](graph::VertexId v) { return v / bs; };
  for (graph::VertexId u = 0; u < n; ++u) {
    for (graph::VertexId v = u + 1; v < n; ++v) {
      double p = 0.002;
      if (block_of(u) == block_of(v)) p = 0.9;
      else if (group_of(u) == group_of(v)) p = 0.10;
      if (rng.uniform() < p) edges.push_back({u, v, 1.0});
    }
  }
  return graph::build_csr(edges, n);
}

}  // namespace dinfomap::testing
