// Wire records of the distributed protocol. All types are trivially
// copyable PODs, sent through comm::Comm's typed channels.
#pragma once

#include <cstdint>

#include "core/mapequation.hpp"
#include "graph/types.hpp"

namespace dinfomap::core {

/// Global module identifier: the current-level vertex id anchoring the
/// module. The paper's List 1 widens it to uint64_t modID; here module ids
/// and vertex ids share one type, so a module id fits wherever a vertex
/// id does (module_of_, the level maps, the merge's live-id list).
using ModuleId = graph::VertexId;

/// Module statistics on the wire, the paper's List 1 without its isSent
/// flag, in both directions of SwapBoundaryInfo. Towards a module's home it
/// is a rank's partial, for exact aggregation (a zero partial doubles as an
/// "I need this module's info" subscription); back from the home it is the
/// whole module. One home answers for each module, so a rank receives every
/// module once and nothing needs deduplicating.
struct ModuleInfo {
  ModuleId mod_id = 0;           ///< module ID
  std::int32_t num_members = 0;  ///< vertex number in this module
  double sum_pr = 0;             ///< sum of visit probability of the module
  double exit_pr = 0;            ///< sum of exit probability of the module
};
static_assert(sizeof(ModuleInfo) == 24);

/// Boundary-vertex swap record: "vertex v is now in module m" (Alg. 3 lines
/// 2–19 prepare these; lines 22–32 consume them). The receiver only updates
/// its ghost copy; module statistics reach it in the homes' reply.
struct BoundaryRecord {
  graph::VertexId vertex = 0;
  ModuleId module = 0;
};
static_assert(sizeof(BoundaryRecord) == 8);

/// A rank's local best move for a delegate (hub), broadcast so all ranks
/// apply the move with the globally minimal ΔL (Alg. 2 line 4).
struct HubProposal {
  graph::VertexId hub = 0;
  std::int32_t rank = 0;
  ModuleId target = 0;
  std::uint32_t pad_ = 0;
  double delta_l = 0;
};

/// One rank's partial flow from a hub to one neighbor module, shipped to the
/// hub's owner for the exact-hub-moves extension. Carries the sender's
/// (post-sync, hence globally consistent) statistics of that module so the
/// owner can evaluate ΔL for modules it does not track itself.
struct HubFlowRecord {
  graph::VertexId hub = 0;
  ModuleId module = 0;
  double flow = 0;
  ModuleStats stats;
};
static_assert(sizeof(HubFlowRecord) == 40);

/// One home's codelength partials over its live modules, plus the sending
/// rank's move count, carried on SwapBoundaryInfo's reply to every rank.
/// Receivers add them in rank order 0..p−1, the order of Comm::allreduce.
struct HomeTotals {
  double q_total = 0;             ///< Σ exit_pr
  double sum_plogp_q = 0;         ///< Σ plogp(exit_pr)
  double sum_plogp_q_plus_p = 0;  ///< Σ plogp(exit_pr + sum_pr)
  std::uint64_t alive = 0;        ///< live modules, settled ones included
  std::uint64_t moves = 0;        ///< the sender's local moves this round
};

/// Ghost-subscription request: "rank R reads vertex v; push its module
/// changes to R" (set up once per level).
struct SubscribeRequest {
  graph::VertexId vertex = 0;
};

/// Coarse arc shipped during distributed merging (§3.5).
struct CoarseArc {
  graph::VertexId source = 0;
  graph::VertexId target = 0;  ///< == source encodes self-flow (already halved)
  double flow = 0;
};

/// Coarse vertex metadata from a module's home to the new 1D owner.
struct CoarseVertexInfo {
  graph::VertexId vertex = 0;
  std::uint32_t pad_ = 0;
  double node_flow = 0;
};

/// Async engine: one committed move, pushed unsolicited to every subscriber
/// of the moved vertex at the end of the epoch (subscribers were registered
/// up front, so no query/answer round trip). Receivers update their ghost
/// copy, adjust module mass estimates by `node_flow`, and reactivate local
/// readers with priority `gain` (the mover's achieved |ΔL|).
struct ModuleDeltaRecord {
  graph::VertexId vertex = 0;
  ModuleId old_module = 0;
  ModuleId new_module = 0;
  std::uint32_t pad_ = 0;
  double node_flow = 0;
  double gain = 0;
};

/// Async engine: per-rank epoch summary, piggybacked on the same packed
/// exchange as the delta records (broadcast to all ranks). Global quiescence
/// — every rank reporting zero moves and an empty worklist — is then
/// detectable without an extra collective.
struct EpochStatus {
  std::uint64_t moves = 0;   ///< moves this rank committed this epoch
  std::uint64_t queued = 0;  ///< live worklist entries after the drain
};

}  // namespace dinfomap::core
