#include "core/seq_infomap.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "core/coarsen.hpp"
#include "graph/builder.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/sorted.hpp"
#include "util/sparse_accumulator.hpp"

namespace dinfomap::core {

using graph::VertexId;

namespace {

/// Dense clustering state for one level: module stats plus incrementally
/// maintained codelength terms.
struct LevelState {
  std::vector<VertexId> module_of;
  std::vector<ModuleStats> modules;  // indexed by module id (== initial vertex)
  CodelengthTerms terms;
  VertexId live_modules = 0;

  void init_singletons(const FlowGraph& fg) {
    std::vector<VertexId> identity(fg.num_vertices());
    std::iota(identity.begin(), identity.end(), 0);
    init_from(fg, identity);
  }

  /// Initialize from an arbitrary assignment (labels must be < n). Used for
  /// singleton starts and for the level-0 fine-tuning sweep.
  void init_from(const FlowGraph& fg, const std::vector<VertexId>& assignment) {
    const VertexId n = fg.num_vertices();
    DINFOMAP_REQUIRE(assignment.size() == n);
    module_of = assignment;
    modules.assign(n, ModuleStats{});
    terms = CodelengthTerms{};
    terms.node_term = fg.node_term;
    live_modules = 0;
    for (VertexId u = 0; u < n; ++u) {
      DINFOMAP_REQUIRE_MSG(module_of[u] < n, "module labels must be < n");
      ModuleStats& m = modules[module_of[u]];
      m.sum_pr += fg.node_flow[u];
      m.num_members += 1;
      for (const auto& nb : fg.csr.neighbors(u))
        if (module_of[nb.target] != module_of[u]) m.exit_pr += nb.weight;
    }
    for (const ModuleStats& m : modules) {
      if (m.num_members == 0) continue;
      ++live_modules;
      terms.q_total += m.exit_pr;
      terms.sum_plogp_q += plogp(m.exit_pr);
      terms.sum_plogp_q_plus_p += plogp(m.exit_pr + m.sum_pr);
    }
  }

  void apply(VertexId u, VertexId target, const MoveOutcome& out) {
    ModuleStats& old_m = modules[module_of[u]];
    ModuleStats& new_m = modules[target];
    terms.q_total += out.delta_q_total;
    terms.sum_plogp_q += plogp(out.old_after.exit_pr) - plogp(old_m.exit_pr) +
                         plogp(out.new_after.exit_pr) - plogp(new_m.exit_pr);
    terms.sum_plogp_q_plus_p +=
        plogp(out.old_after.exit_pr + out.old_after.sum_pr) -
        plogp(old_m.exit_pr + old_m.sum_pr) +
        plogp(out.new_after.exit_pr + out.new_after.sum_pr) -
        plogp(new_m.exit_pr + new_m.sum_pr);
    if (out.old_after.num_members == 0) --live_modules;
    old_m = out.old_after;
    new_m = out.new_after;
    module_of[u] = target;
  }
};

/// Reusable scratch for move passes: the flow accumulator (module ids are
/// always < the level's vertex count) and the plogp memo. One instance
/// serves every pass of a level — no per-vertex allocation.
struct MoveScratch {
  util::SparseAccumulator<VertexId, double> flow_to;  // module -> flow from u
  PlogpMemo memo;
};

/// Gather u's flow per neighbor module, then pick the best candidate in the
/// accumulator's first-touch (= edge) order. Returns true when a strictly
/// improving target exists.
bool best_move(const FlowGraph& fg, const LevelState& state, VertexId u,
               double eps, MoveScratch& scratch, VertexId& best_target,
               MoveOutcome& best_outcome) {
  auto& flow_to = scratch.flow_to;
  flow_to.clear();
  double f_u = 0;
  for (const auto& nb : fg.csr.neighbors(u)) {
    flow_to[state.module_of[nb.target]] += nb.weight;
    f_u += nb.weight;
  }
  if (flow_to.empty()) return false;  // isolated vertex
  const VertexId cur = state.module_of[u];
  const double f_to_old = flow_to.value_or(cur, 0.0);
  double best_delta = -eps;
  best_target = cur;
  for (const VertexId mod : flow_to.keys()) {
    if (mod == cur) continue;
    MoveDelta d;
    d.p_u = fg.node_flow[u];
    d.f_u = f_u;
    d.f_to_old = f_to_old;
    d.f_to_new = *flow_to.find(mod);
    d.old_stats = state.modules[cur];
    d.new_stats = state.modules[mod];
    d.q_total = state.terms.q_total;
    const MoveOutcome out = evaluate_move(d, scratch.memo);
    if (out.delta_codelength < best_delta - 1e-15 ||
        (out.delta_codelength < best_delta + 1e-15 && mod < best_target)) {
      best_delta = out.delta_codelength;
      best_target = mod;
      best_outcome = out;
    }
  }
  return best_target != cur;
}

/// One pass over all vertices in `order`; returns the number of moves.
std::uint64_t move_pass(const FlowGraph& fg, LevelState& state,
                        const std::vector<VertexId>& order, double eps,
                        MoveScratch& scratch) {
  auto& flow_to = scratch.flow_to;
  if (flow_to.capacity() < fg.num_vertices()) flow_to.reset(fg.num_vertices());
  std::uint64_t moves = 0;
  for (VertexId u : order) {
    VertexId best_target = 0;
    MoveOutcome best_outcome;
    if (best_move(fg, state, u, eps, scratch, best_target, best_outcome)) {
      state.apply(u, best_target, best_outcome);
      ++moves;
    }
  }
  return moves;
}

}  // namespace

InfomapResult sequential_infomap(const graph::Csr& graph,
                                 const InfomapConfig& config) {
  DINFOMAP_REQUIRE_MSG(graph.num_vertices() > 0, "empty graph");
  FlowGraph fg = make_flow_graph(graph);
  const bool keep_level0 = config.fine_tune || config.coarse_tune;
  const FlowGraph level0 = keep_level0 ? fg : FlowGraph{};

  InfomapResult result;
  result.assignment.resize(graph.num_vertices());
  std::iota(result.assignment.begin(), result.assignment.end(), 0);

  double prev_codelength = 0;
  {
    LevelState probe;
    probe.init_singletons(fg);
    result.singleton_codelength = probe.terms.codelength();
    prev_codelength = result.singleton_codelength;
  }

  util::Xoshiro256 rng(config.seed);
  MoveScratch scratch;
  for (int level = 0; level < config.max_outer_iterations; ++level) {
    LevelState state;
    state.init_singletons(fg);

    OuterIterationInfo info;
    info.level = level;
    info.level_vertices = fg.num_vertices();
    info.codelength_before = state.terms.codelength();

    std::vector<VertexId> order(fg.num_vertices());
    std::iota(order.begin(), order.end(), 0);

    for (int pass = 0; pass < config.max_inner_passes; ++pass) {
      util::deterministic_shuffle(order, rng);
      const std::uint64_t moves =
          move_pass(fg, state, order, config.move_epsilon, scratch);
      info.moves += moves;
      ++info.inner_passes;
      if (moves == 0) break;
    }

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
    if (level > 0 && improvement < config.theta) break;
  }

  // Coarse-tuning (Rosvall's submodule refinement): split each module into
  // candidate submodules on its induced subnetwork, contract submodules to
  // single nodes, and let them move between modules as units. Only improving
  // moves are accepted.
  if (config.coarse_tune && !result.trace.empty()) {
    const VertexId n = level0.num_vertices();
    // 1. Submodules within each module (fresh labels, globally unique).
    std::vector<VertexId> sub(n, 0);
    {
      std::unordered_map<VertexId, std::vector<VertexId>> members;
      for (VertexId v = 0; v < n; ++v) members[result.assignment[v]].push_back(v);
      VertexId next_label = 0;
      InfomapConfig sub_cfg = config;
      sub_cfg.fine_tune = false;
      sub_cfg.coarse_tune = false;
      // Sorted module order: submodule labels (and the downstream contraction)
      // must not depend on hash layout.
      for (const VertexId mod : util::sorted_keys(members)) {
        const std::vector<VertexId>& verts = members.at(mod);
        if (verts.size() <= 2) {
          for (VertexId v : verts) sub[v] = next_label;
          ++next_label;
          continue;
        }
        std::unordered_map<VertexId, VertexId> local;
        for (VertexId i = 0; i < verts.size(); ++i) local.emplace(verts[i], i);
        graph::EdgeList internal;
        for (VertexId i = 0; i < verts.size(); ++i) {
          for (const auto& nb : level0.csr.neighbors(verts[i])) {
            if (verts[i] > nb.target) continue;
            auto it = local.find(nb.target);
            if (it != local.end()) internal.push_back({i, it->second, nb.weight});
          }
        }
        if (internal.empty()) {
          for (VertexId v : verts) sub[v] = next_label;
          ++next_label;
          continue;
        }
        const auto sub_result = sequential_infomap(
            graph::build_csr(internal, static_cast<VertexId>(verts.size())),
            sub_cfg);
        VertexId max_sub = 0;
        for (VertexId i = 0; i < verts.size(); ++i) {
          sub[verts[i]] = next_label + sub_result.assignment[i];
          max_sub = std::max(max_sub, sub_result.assignment[i]);
        }
        next_label += max_sub + 1;
      }
    }
    // 2. Contract submodules; seed the contracted state with the *module*
    //    assignment (submodule → its parent module, densified).
    CoarsenResult contracted = coarsen(level0, sub);
    const VertexId n_sub = contracted.graph.num_vertices();
    std::vector<VertexId> parent(n_sub, 0);
    for (VertexId v = 0; v < n; ++v)
      parent[contracted.fine_to_coarse[v]] = result.assignment[v];
    // init_from needs labels < n_sub: densify parents into [0, n_sub).
    {
      std::unordered_map<VertexId, VertexId> dense;
      for (auto& x : parent) {
        auto [it, inserted] = dense.try_emplace(x, static_cast<VertexId>(dense.size()));
        x = it->second;
      }
    }
    LevelState state;
    state.init_from(contracted.graph, parent);
    std::vector<VertexId> order(n_sub);
    std::iota(order.begin(), order.end(), 0);
    util::Xoshiro256 tune_rng(util::derive_seed(config.seed, 0xC0A53));
    for (int pass = 0; pass < config.max_inner_passes; ++pass) {
      util::deterministic_shuffle(order, tune_rng);
      const auto moves = move_pass(contracted.graph, state, order,
                                   config.move_epsilon, scratch);
      result.coarse_tune_moves += moves;
      if (moves == 0) break;
    }
    if (result.coarse_tune_moves > 0) {
      std::vector<VertexId> sorted(state.module_of);
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      std::unordered_map<VertexId, VertexId> dense;
      for (VertexId i = 0; i < sorted.size(); ++i) dense.emplace(sorted[i], i);
      for (VertexId v = 0; v < n; ++v)
        result.assignment[v] =
            dense.at(state.module_of[contracted.fine_to_coarse[v]]);
      result.codelength = state.terms.codelength();
      if (!result.level_assignments.empty())
        result.level_assignments.back() = result.assignment;
    }
  }

  // Fine-tuning (Rosvall's single-node refinement): sweep level-0 vertices
  // between the final modules; accepts only improving moves, so L can only
  // decrease.
  if (config.fine_tune && !result.trace.empty()) {
    LevelState state;
    state.init_from(level0, result.assignment);
    std::vector<VertexId> order(level0.num_vertices());
    std::iota(order.begin(), order.end(), 0);
    util::Xoshiro256 tune_rng(util::derive_seed(config.seed, 0xF17E));
    for (int pass = 0; pass < config.max_inner_passes; ++pass) {
      util::deterministic_shuffle(order, tune_rng);
      const auto moves =
          move_pass(level0, state, order, config.move_epsilon, scratch);
      result.fine_tune_moves += moves;
      if (moves == 0) break;
    }
    if (result.fine_tune_moves > 0) {
      // Re-densify labels and adopt the refined assignment.
      std::vector<VertexId> sorted(state.module_of);
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      std::unordered_map<VertexId, VertexId> dense;
      for (VertexId i = 0; i < sorted.size(); ++i) dense.emplace(sorted[i], i);
      for (VertexId v = 0; v < level0.num_vertices(); ++v)
        result.assignment[v] = dense.at(state.module_of[v]);
      result.codelength = state.terms.codelength();
      if (!result.level_assignments.empty())
        result.level_assignments.back() = result.assignment;
    }
  }
  return result;
}

graph::Partition cluster_flow_graph(const FlowGraph& fg,
                                    const InfomapConfig& config) {
  DINFOMAP_REQUIRE_MSG(fg.num_vertices() > 0, "empty flow graph");
  LevelState state;
  state.init_singletons(fg);
  std::vector<VertexId> order(fg.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  util::Xoshiro256 rng(config.seed);
  MoveScratch scratch;
  for (int pass = 0; pass < config.max_inner_passes; ++pass) {
    util::deterministic_shuffle(order, rng);
    if (move_pass(fg, state, order, config.move_epsilon, scratch) == 0) break;
  }
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
