#include "core/seq_infomap.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "core/coarsen.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/sorted.hpp"

namespace dinfomap::core {

using graph::VertexId;

namespace {

/// Every vertex of `fg` alone in its module, exiting along its non-self arcs.
LevelState singletons(const FlowGraph& fg) {
  LevelState state;
  state.init_singletons(fg.node_flow, fg.node_term, [&fg](VertexId u) {
    double exit = 0;
    for (const auto& nb : fg.csr.neighbors(u))
      if (nb.target != u) exit += nb.weight;
    return exit;
  });
  return state;
}

/// One pass over all vertices in `order`: gather u's flow per neighbour
/// module, move u to the selected candidate. Returns the number of moves.
std::uint64_t move_pass(const FlowGraph& fg, LevelState& state,
                        const std::vector<VertexId>& order,
                        MoveScratch& scratch) {
  auto& flow_to = scratch.flow_to;
  if (flow_to.capacity() < fg.num_vertices()) flow_to.reset(fg.num_vertices());
  std::uint64_t moves = 0;
  for (VertexId u : order) {
    flow_to.clear();
    double f_u = 0;
    for (const auto& nb : fg.csr.neighbors(u)) {
      flow_to[state.module_of[nb.target]] += nb.weight;
      f_u += nb.weight;
    }
    const VertexId cur = state.module_of[u];
    MoveOutcome outcome;
    const VertexId target =
        select_move(scratch, cur, fg.node_flow[u], f_u, state.modules,
                    state.terms.q_total, outcome);
    if (target != cur) {
      state.apply(u, target, outcome);
      ++moves;
    }
  }
  return moves;
}

/// Alg. 1 lines 13–23 on one level: shuffled move passes until a pass moves
/// nothing or the pass cap. Records passes and moves in `info`.
void move_passes(const FlowGraph& fg, LevelState& state, util::Xoshiro256& rng,
                 MoveScratch& scratch, OuterIterationInfo& info) {
  std::vector<VertexId> order(fg.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  for (int pass = 0; pass < kSeqMaxPasses; ++pass) {
    util::deterministic_shuffle(order, rng);
    const std::uint64_t moves = move_pass(fg, state, order, scratch);
    info.moves += moves;
    ++info.inner_passes;
    if (moves == 0) break;
  }
}

}  // namespace

InfomapResult sequential_infomap(const graph::Csr& graph,
                                 const InfomapConfig& config) {
  DINFOMAP_REQUIRE_MSG(graph.num_vertices() > 0, "empty graph");
  FlowGraph fg = make_flow_graph(graph);

  InfomapResult result;
  result.assignment.resize(graph.num_vertices());
  std::iota(result.assignment.begin(), result.assignment.end(), 0);
  result.singleton_codelength = singletons(fg).terms.codelength();
  double prev_codelength = result.singleton_codelength;

  util::Xoshiro256 rng(config.seed);
  MoveScratch scratch;
  for (int level = 0; level < kSeqMaxLevels; ++level) {
    LevelState state = singletons(fg);

    OuterIterationInfo info;
    info.level = level;
    info.level_vertices = fg.num_vertices();
    info.codelength_before = state.terms.codelength();
    move_passes(fg, state, rng, scratch, info);
    info.codelength_after = state.terms.codelength();
    info.num_modules = state.live_modules;
    result.trace.push_back(info);

    // Project the level-0 assignment through this level's merge:
    // each entry currently names a fine vertex; fine_to_coarse maps a fine
    // vertex to the coarse vertex of its module.
    CoarsenResult coarse = coarsen(fg, state.module_of);
    for (auto& a : result.assignment) a = coarse.fine_to_coarse[a];
    result.level_assignments.push_back(result.assignment);
    fg = std::move(coarse.graph);

    const double improvement = prev_codelength - info.codelength_after;
    prev_codelength = info.codelength_after;
    result.codelength = info.codelength_after;
    if (info.num_modules == info.level_vertices) break;  // nothing merged
    if (level > 0 && improvement < kTheta) break;
  }
  return result;
}

graph::Partition cluster_flow_graph(const FlowGraph& fg,
                                    const InfomapConfig& config) {
  DINFOMAP_REQUIRE_MSG(fg.num_vertices() > 0, "empty flow graph");
  LevelState state = singletons(fg);
  util::Xoshiro256 rng(config.seed);
  MoveScratch scratch;
  OuterIterationInfo info;
  move_passes(fg, state, rng, scratch, info);
  return state.module_of;
}

double codelength_of_partition(const FlowGraph& fg,
                               const std::vector<VertexId>& module_of) {
  DINFOMAP_REQUIRE(module_of.size() == fg.num_vertices());
  std::unordered_map<VertexId, ModuleStats> mods;
  for (VertexId u = 0; u < fg.num_vertices(); ++u) {
    ModuleStats& m = mods[module_of[u]];
    m.sum_pr += fg.node_flow[u];
    m.num_members += 1;
    for (const auto& nb : fg.csr.neighbors(u))
      if (module_of[nb.target] != module_of[u]) m.exit_pr += nb.weight;
  }
  CodelengthTerms terms;
  terms.node_term = fg.node_term;
  // Sorted module order: this FP reduction must not depend on hash layout.
  for (const VertexId id : util::sorted_keys(mods)) {
    const ModuleStats& m = mods.at(id);
    terms.q_total += m.exit_pr;
    terms.sum_plogp_q += plogp(m.exit_pr);
    terms.sum_plogp_q_plus_p += plogp(m.exit_pr + m.sum_pr);
  }
  return terms.codelength();
}

}  // namespace dinfomap::core
