// Hierarchical (multi-level) map equation and recursive Infomap.
//
// The paper's algorithm is two-level (Eq. 3). The original Infomap
// (Rosvall & Bergstrom 2011) generalizes the codelength to a tree of nested
// modules: every internal module carries a codebook over its children's
// enter rates plus its own exit rate, and leaf modules carry codebooks over
// member-vertex visit rates plus exit. For a one-deep tree the formula
// reduces exactly to Eq. 3 (asserted by tests).
//
// hierarchical_infomap() runs the paper's two-level search at the top, then
// recursively splits each module on its induced subnetwork, keeping a split
// only when it lowers the *hierarchical* codelength.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/flowgraph.hpp"
#include "core/seq_infomap.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace dinfomap::core {

/// A tree of nested modules over the vertices of a FlowGraph.
class Hierarchy {
 public:
  struct Node {
    int parent = -1;
    std::vector<int> children;            ///< internal child nodes
    std::vector<graph::VertexId> leaves;  ///< vertices attached directly
    double exit = 0;    ///< flow crossing this module's boundary (root: 0)
    double sum_pr = 0;  ///< Σ visit rates of all contained vertices
  };

  /// Build the trivial one-module-per-cluster tree from a flat partition.
  static Hierarchy two_level(const FlowGraph& fg, const graph::Partition& modules);

  /// Multi-level codelength of this tree (Eq. 3 generalized).
  [[nodiscard]] double codelength(const FlowGraph& fg) const;

  /// Split leaf-node `node` into sub-modules given by `sub_of` (one entry
  /// per leaf vertex of the node, arbitrary labels). The node's leaves move
  /// into new child nodes; exits are recomputed from `fg`.
  void split_node(const FlowGraph& fg, int node,
                  const std::vector<graph::VertexId>& sub_of);

  /// Insert a super-level above the current top modules: `super_of[i]` is
  /// the (arbitrary) super-module label of the root's i-th child. The root's
  /// children become the new super-nodes.
  void group_top(const FlowGraph& fg,
                 const std::vector<graph::VertexId>& super_of);

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] int root() const { return 0; }

  /// Depth of the deepest leaf module (root = depth 0; the paper's two-level
  /// result has depth 1).
  [[nodiscard]] int depth() const;

  /// Number of leaf modules (nodes holding vertices).
  [[nodiscard]] int num_leaf_modules() const;

  /// vertex → leaf-module index (dense ids over leaf modules).
  [[nodiscard]] graph::Partition leaf_assignment(graph::VertexId n) const;

  /// Colon paths per vertex ("1:3:2:leaf"), 1-based, larger children first —
  /// feeds io::write_tree-style output for ragged hierarchies.
  [[nodiscard]] std::vector<std::string> vertex_paths(graph::VertexId n) const;

  /// Structural audit (tree shape, every vertex exactly once, flows
  /// conserved); used by tests.
  [[nodiscard]] bool validate(const FlowGraph& fg) const;

 private:
  /// Recompute exit/sum_pr of every node from the flow graph.
  void recompute_flows(const FlowGraph& fg);
  std::vector<Node> nodes_;  // nodes_[0] is the root
};

/// The search recurses at most 4 levels below the root and does not try to
/// split modules of fewer than 8 vertices; the upward grouping pass runs at
/// most 4 times.
struct HierInfomapConfig {
  InfomapConfig two_level;  ///< search config reused at every level
};

struct HierInfomapResult {
  Hierarchy hierarchy;
  double codelength = 0;           ///< hierarchical L of `hierarchy`
  double two_level_codelength = 0; ///< the flat Eq.-3 L it improves on
  graph::Partition leaf_assignment;
};

HierInfomapResult hierarchical_infomap(const graph::Csr& graph,
                                       const HierInfomapConfig& config = {});

}  // namespace dinfomap::core
