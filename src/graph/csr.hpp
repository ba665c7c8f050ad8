// Compressed-sparse-row representation of an undirected weighted graph.
//
// Each undirected edge {u,v} is stored twice (u→v and v→u) so neighbor scans
// are contiguous. Self-loops are kept *out* of the adjacency and accumulated
// in a per-vertex `self_weight` instead: coarsened graphs use them to carry
// intra-community weight, and the map equation treats them separately
// ("self-connected edges excluded" — paper §2.2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace dinfomap::util {
class ThreadPool;
}

namespace dinfomap::graph {

namespace detail {
/// Each slot of a parallel ingest pass (build_csr, the Csr constructor) gets
/// at least this many edges.
inline constexpr std::size_t kMinSlotEdges = std::size_t{1} << 18;
}  // namespace detail

/// Adjacency entry: neighbor id plus edge weight.
struct Neighbor {
  VertexId target = 0;
  Weight weight = 1.0;
};

class Csr {
 public:
  Csr() = default;
  /// Weighted degrees are summed per row on
  /// util::slots_for(num_edges(), detail::kMinSlotEdges) threads; totals
  /// are summed in vertex order, so the result is the same for any count.
  Csr(std::vector<EdgeIndex> offsets, std::vector<Neighbor> adjacency,
      std::vector<Weight> self_weight);
  /// The same, on `pool`'s slots.
  Csr(std::vector<EdgeIndex> offsets, std::vector<Neighbor> adjacency,
      std::vector<Weight> self_weight, util::ThreadPool& pool);

  [[nodiscard]] VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Number of stored directed arcs (= 2 × undirected non-self edges).
  [[nodiscard]] EdgeIndex num_arcs() const { return adjacency_.size(); }

  /// Number of undirected non-self edges.
  [[nodiscard]] EdgeIndex num_edges() const { return adjacency_.size() / 2; }

  [[nodiscard]] EdgeIndex degree(VertexId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  [[nodiscard]] std::span<const Neighbor> neighbors(VertexId u) const {
    return {adjacency_.data() + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// Sum of incident non-self edge weights of u.
  [[nodiscard]] Weight weighted_degree(VertexId u) const { return wdeg_[u]; }

  /// Accumulated self-loop weight at u (each undirected self-loop counted once).
  [[nodiscard]] Weight self_weight(VertexId u) const { return self_weight_[u]; }

  /// Σ_u weighted_degree(u) / 2 + Σ_u self_weight(u): total undirected weight.
  [[nodiscard]] Weight total_weight() const { return total_weight_; }

  /// Total weight excluding self-loops (2W denominator of visit probabilities).
  [[nodiscard]] Weight total_link_weight() const { return total_link_weight_; }

  [[nodiscard]] const std::vector<EdgeIndex>& offsets() const { return offsets_; }
  [[nodiscard]] const std::vector<Neighbor>& adjacency() const { return adjacency_; }

  /// Structural sanity: offsets monotone, targets in range, weights positive,
  /// adjacency symmetric (every arc has a reverse arc of equal weight).
  /// O(E log E); intended for tests and debug use.
  [[nodiscard]] bool validate() const;

 private:
  void sum_weights(util::ThreadPool& pool);

  std::vector<EdgeIndex> offsets_;     // size n+1
  std::vector<Neighbor> adjacency_;   // size 2*E_non_self
  std::vector<Weight> self_weight_;   // size n
  std::vector<Weight> wdeg_;          // size n, cached weighted degrees
  Weight total_weight_ = 0;
  Weight total_link_weight_ = 0;
};

}  // namespace dinfomap::graph
