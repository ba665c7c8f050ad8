// Community merging (Phase 3 of Algorithm 1 / §3.5): contract each module of
// a FlowGraph into one vertex of a new FlowGraph.
#pragma once

#include "core/flowgraph.hpp"
#include "graph/types.hpp"

namespace dinfomap::core {

struct CoarsenResult {
  FlowGraph graph;
  /// fine vertex → coarse vertex (dense ids of the new graph).
  std::vector<VertexId> fine_to_coarse;
};

/// `module_of[u]` may use arbitrary ids; they are compacted (order of first
/// appearance by ascending module id) into dense coarse ids. Arc flows
/// between modules are summed; intra-module flows become self flows; node
/// flows are summed per module; node_term is carried unchanged.
CoarsenResult coarsen(const FlowGraph& fine, const std::vector<VertexId>& module_of);

}  // namespace dinfomap::core
