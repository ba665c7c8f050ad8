// Directed CSR: out- and in-adjacency for directed weighted graphs.
// Substrate of the directed-Infomap extension (§2.2 of the paper notes the
// method applies to directed graphs; flows then come from PageRank).
#pragma once

#include <span>
#include <vector>

#include "graph/types.hpp"

namespace dinfomap::graph {

struct DiNeighbor {
  VertexId target = 0;
  Weight weight = 1.0;
};

class DiCsr {
 public:
  DiCsr() = default;

  /// Build from directed edges (u→v). Parallel edges combine, their weights
  /// added in input order; self-loops are kept as ordinary arcs (they simply
  /// never contribute to exits).
  static DiCsr from_edges(const EdgeList& edges, VertexId num_vertices = 0);

  [[nodiscard]] VertexId num_vertices() const {
    return out_offsets_.empty() ? 0
                                : static_cast<VertexId>(out_offsets_.size() - 1);
  }
  [[nodiscard]] EdgeIndex num_arcs() const { return out_adj_.size(); }

  [[nodiscard]] std::span<const DiNeighbor> out_neighbors(VertexId u) const {
    return {out_adj_.data() + out_offsets_[u],
            static_cast<std::size_t>(out_offsets_[u + 1] - out_offsets_[u])};
  }
  [[nodiscard]] std::span<const DiNeighbor> in_neighbors(VertexId u) const {
    return {in_adj_.data() + in_offsets_[u],
            static_cast<std::size_t>(in_offsets_[u + 1] - in_offsets_[u])};
  }

  [[nodiscard]] EdgeIndex out_degree(VertexId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  [[nodiscard]] EdgeIndex in_degree(VertexId u) const {
    return in_offsets_[u + 1] - in_offsets_[u];
  }
  [[nodiscard]] Weight out_weight(VertexId u) const { return out_weight_[u]; }

  /// in_adj mirrors out_adj exactly (same arcs, reversed).
  [[nodiscard]] bool validate() const;

 private:
  std::vector<EdgeIndex> out_offsets_, in_offsets_;
  std::vector<DiNeighbor> out_adj_, in_adj_;
  std::vector<Weight> out_weight_;
};

}  // namespace dinfomap::graph
