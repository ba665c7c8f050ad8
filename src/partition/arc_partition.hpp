// Graph distribution across ranks: plain 1D and delegate partitioning.
//
// Both strategies assign *arcs* (directed halves of undirected edges). A
// vertex's workload in Infomap is proportional to the arcs it must scan, so
// per-rank arc counts are the workload metric of Fig. 6 and ghost-vertex
// counts the communication metric of Fig. 7.
//
// Ownership of low-degree vertices is round-robin: owner(v) = v mod p, the
// paper's "round-robin 1D partitioning" (§3.3).
//
// 1D:        arc (u→v) lives on owner(u) — whole adjacency list with its
//            vertex. Hubs concentrate arcs on one rank.
// Delegate:  vertices with degree > d_high are *delegates*, duplicated on
//            every rank. Their arcs are assigned by target: to owner(v) if v
//            is low-degree, or to a rebalance pool when v is itself a hub.
//            A final pass moves pool/hub arcs from overloaded to underloaded
//            ranks until every rank holds ≈ |arcs|/p.
//
// A partition records one decision per arc — the rank that holds it — as
// `arc_rank`, indexed in the graph's own arc (CSR) order. An arc's endpoints
// and weight are never copied: whoever needs them reads the row from the
// graph. So a partition cannot lose, duplicate, retarget or reweight an arc;
// all it can get wrong is a rank number.
//
// Every builder takes a graph::GraphView, so partitioning streams equally
// from the resident CSR or the out-of-core block file (a Csr converts
// implicitly). With identical inputs the builders are deterministic,
// which is what makes partitions bit-identical across backends.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph_view.hpp"
#include "graph/types.hpp"

namespace dinfomap::partition {

using graph::EdgeIndex;
using graph::GraphView;
using graph::VertexId;

/// Largest rank count a partition can address (ranks are stored as
/// std::uint16_t per arc).
inline constexpr int kMaxRanks = 65535;

enum class Strategy { kOneD, kOneDBalanced, kHash, kDelegate };

/// The result of distributing a graph over `num_ranks` ranks.
struct ArcPartition {
  /// The graph the partition was built over; it must outlive the partition.
  GraphView graph;
  Strategy strategy = Strategy::kOneD;
  int num_ranks = 1;
  /// Hub threshold used (meaningful for kDelegate; 0 otherwise).
  EdgeIndex degree_threshold = 0;
  /// Per-vertex delegate flag (all false outside kDelegate).
  std::vector<std::uint8_t> is_delegate;
  /// Per-vertex owning rank.
  std::vector<int> owners;
  /// Rank holding each arc, in the graph's arc order (row u covers
  /// [graph.first_arc(u), graph.first_arc(u) + graph.degree(u))).
  std::vector<std::uint16_t> arc_rank;

  [[nodiscard]] bool delegate(VertexId v) const { return is_delegate[v] != 0; }
  [[nodiscard]] int owner(VertexId v) const { return owners[v]; }
  /// True if v is local on `rank`: delegates everywhere, low-degree at owner.
  [[nodiscard]] bool local_on(VertexId v, int rank) const {
    return delegate(v) || owner(v) == rank;
  }
  /// True when ownership is round-robin v mod p — what the distributed
  /// Infomap's addressing assumes.
  [[nodiscard]] bool round_robin_ownership() const {
    for (VertexId v = 0; v < owners.size(); ++v)
      if (owners[v] != static_cast<int>(v % static_cast<VertexId>(num_ranks)))
        return false;
    return true;
  }
};

/// Plain 1D with round-robin ownership: every out-arc with its source's owner.
ArcPartition make_oned(const GraphView& graph, int num_ranks);

/// 1D over contiguous vertex ranges whose degree sums are balanced — the
/// edge-count workload model of Zeng & Yu [29,30]. Balances arcs per rank
/// but not the hub-induced ghost traffic.
ArcPartition make_oned_balanced(const GraphView& graph, int num_ranks);

/// 1D with hashed ownership (decorrelates vertex id from placement).
ArcPartition make_hash(const GraphView& graph, int num_ranks,
                       std::uint64_t seed = 0x9E3779B9u);

/// Delegate partitioning; `degree_threshold` of 0 applies the paper's default
/// d_high = num_ranks.
ArcPartition make_delegate(const GraphView& graph, int num_ranks,
                           EdgeIndex degree_threshold = 0);

}  // namespace dinfomap::partition
