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
// Every builder takes a graph::GraphView, so partitioning streams equally
// from the resident CSR or the out-of-core block file; the Csr overloads
// are thin wrappers. With identical inputs the builders are deterministic,
// which is what makes partitions bit-identical across backends.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph_view.hpp"
#include "graph/types.hpp"

namespace dinfomap::partition {

using graph::Csr;
using graph::EdgeIndex;
using graph::GraphView;
using graph::VertexId;
using graph::Weight;

/// One directed half-edge as stored on a rank.
struct Arc {
  VertexId source = 0;
  VertexId target = 0;
  Weight weight = 1.0;

  friend bool operator==(const Arc&, const Arc&) = default;
};

enum class Strategy { kOneD, kOneDBalanced, kHash, kDelegate };

/// The result of distributing a graph over `num_ranks` ranks.
struct ArcPartition {
  Strategy strategy = Strategy::kOneD;
  int num_ranks = 1;
  /// Hub threshold used (meaningful for kDelegate; 0 otherwise).
  EdgeIndex degree_threshold = 0;
  /// Per-vertex delegate flag (all false outside kDelegate).
  std::vector<std::uint8_t> is_delegate;
  /// Per-vertex owning rank.
  std::vector<int> owners;
  /// Arcs assigned to each rank.
  std::vector<std::vector<Arc>> rank_arcs;

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

  /// Release every rank's arc vector except `rank`'s — a multi-process
  /// worker only ever reads its own slice, and in blocks mode the O(|E|)
  /// full partition is the last resident copy of the edge set.
  void keep_only_rank(int rank) {
    for (int r = 0; r < num_ranks; ++r) {
      if (r == rank) continue;
      std::vector<Arc>().swap(rank_arcs[r]);
    }
  }
};

/// Decode-cost coupling for delegate rebalancing (perf::CostModel supplies
/// the numbers; see perf/decode_cost.hpp). When enabled, the rebalance pass
/// models each rank's cost as
///
///   load·sec_per_arc + distinct_blocks·arcs_per_block·(1−hit)·sec_per_arc_decode
///
/// — i.e. arcs concentrated in few edge blocks decode cheaper than the same
/// count scattered across many — and sheds overload accordingly. Requires
/// the blocks backend (block topology is what it reasons about). Disabled
/// (the default) the rebalance is the pure arc-count pass, identical on
/// both backends.
struct DelegateDecodeCost {
  double sec_per_arc = 0;         ///< baseline gather cost per arc
  double sec_per_arc_decode = 0;  ///< amortized decode cost per arc on a miss
  double expected_hit_ratio = 0;  ///< fraction of block faults served cached
  double arcs_per_block = 0;      ///< mean decoded arcs per block

  [[nodiscard]] bool enabled() const {
    return sec_per_arc > 0 && sec_per_arc_decode > 0 && arcs_per_block > 0;
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
/// d_high = num_ranks. `decode_cost` optionally biases the rebalance pass
/// (see DelegateDecodeCost); default-constructed it is inert.
ArcPartition make_delegate(const GraphView& graph, int num_ranks,
                           EdgeIndex degree_threshold = 0,
                           const DelegateDecodeCost& decode_cost = {});

}  // namespace dinfomap::partition
