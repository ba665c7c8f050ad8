#include "core/directed_infomap.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>

#include "core/mapequation.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/sorted.hpp"
#include "util/sparse_accumulator.hpp"

namespace dinfomap::core {

using graph::DiCsr;
using graph::EdgeIndex;
using graph::VertexId;

namespace {
constexpr int kPageRankMaxIterations = 200;
constexpr double kPageRankTolerance = 1e-12;  ///< L1 change of an iteration
}  // namespace

std::vector<double> pagerank(const DiCsr& graph, const PageRankConfig& config) {
  const VertexId n = graph.num_vertices();
  DINFOMAP_REQUIRE_MSG(n > 0, "pagerank: empty graph");
  const double d = config.damping;
  DINFOMAP_REQUIRE_MSG(d > 0 && d < 1, "pagerank: damping in (0,1)");

  std::vector<double> rank(n, 1.0 / n), next(n);
  for (int iter = 0; iter < kPageRankMaxIterations; ++iter) {
    double dangling = 0;
    for (VertexId u = 0; u < n; ++u)
      if (graph.out_weight(u) == 0) dangling += rank[u];
    const double base = (1.0 - d) / n + d * dangling / n;
    std::fill(next.begin(), next.end(), base);
    for (VertexId u = 0; u < n; ++u) {
      if (graph.out_weight(u) == 0) continue;
      const double share = d * rank[u] / graph.out_weight(u);
      for (const auto& nb : graph.out_neighbors(u))
        next[nb.target] += share * nb.weight;
    }
    double delta = 0;
    for (VertexId u = 0; u < n; ++u) delta += std::abs(next[u] - rank[u]);
    rank.swap(next);
    if (delta < kPageRankTolerance) break;
  }
  return rank;
}

namespace {

/// Per-level directed flow graph: stationary link flows in both directions,
/// node visit rates, and intra flows carried as self flow.
struct DiFlow {
  std::vector<EdgeIndex> out_off, in_off;
  std::vector<std::pair<VertexId, double>> out, in;  // (target, flow)
  std::vector<double> node_flow;  ///< visit rate per vertex
  std::vector<double> self_flow;  ///< flow staying on the vertex
  double node_term = 0;           ///< Σ plogp(p_α), level 0

  [[nodiscard]] VertexId size() const {
    return static_cast<VertexId>(node_flow.size());
  }
  [[nodiscard]] double out_flow(VertexId u) const {
    double f = 0;
    for (EdgeIndex a = out_off[u]; a < out_off[u + 1]; ++a) f += out[a].second;
    return f;
  }
};

DiFlow make_di_flow(const DiCsr& graph, const std::vector<double>& rank,
                    double damping) {
  const VertexId n = graph.num_vertices();
  DiFlow fg;
  fg.node_flow = rank;
  fg.self_flow.assign(n, 0.0);
  fg.out_off.assign(static_cast<std::size_t>(n) + 1, 0);
  fg.in_off.assign(static_cast<std::size_t>(n) + 1, 0);

  // Count non-self arcs both ways.
  for (VertexId u = 0; u < n; ++u) {
    for (const auto& nb : graph.out_neighbors(u)) {
      if (nb.target == u) continue;
      ++fg.out_off[u + 1];
      ++fg.in_off[nb.target + 1];
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    fg.out_off[v + 1] += fg.out_off[v];
    fg.in_off[v + 1] += fg.in_off[v];
  }
  fg.out.resize(fg.out_off.back());
  fg.in.resize(fg.in_off.back());
  std::vector<EdgeIndex> oc(fg.out_off.begin(), fg.out_off.end() - 1);
  std::vector<EdgeIndex> ic(fg.in_off.begin(), fg.in_off.end() - 1);
  for (VertexId u = 0; u < n; ++u) {
    if (graph.out_weight(u) == 0) continue;
    const double share = damping * rank[u] / graph.out_weight(u);
    for (const auto& nb : graph.out_neighbors(u)) {
      const double flow = share * nb.weight;
      if (nb.target == u) {
        fg.self_flow[u] += flow;
        continue;
      }
      fg.out[oc[u]++] = {nb.target, flow};
      fg.in[ic[nb.target]++] = {u, flow};
    }
  }
  fg.node_term = 0;
  for (double p : rank) fg.node_term += plogp(p);
  return fg;
}

/// Every vertex of `fg` alone in its module, exiting along its out-arcs.
LevelState singletons(const DiFlow& fg) {
  LevelState state;
  state.init_singletons(fg.node_flow, fg.node_term,
                        [&fg](VertexId u) { return fg.out_flow(u); });
  return state;
}

std::uint64_t di_move_pass(const DiFlow& fg, LevelState& state,
                           const std::vector<VertexId>& order,
                           MoveScratch& scratch) {
  std::uint64_t moves = 0;
  // Combined (out+in)/2 flow to each neighbor module — this halving makes
  // the shared undirected MoveDelta algebra exact for directed flows (it
  // multiplies by 2 internally).
  auto& flow_to = scratch.flow_to;
  if (flow_to.capacity() < fg.size()) flow_to.reset(fg.size());
  for (VertexId u : order) {
    flow_to.clear();
    double f_u = 0;
    for (EdgeIndex a = fg.out_off[u]; a < fg.out_off[u + 1]; ++a) {
      flow_to[state.module_of[fg.out[a].first]] += fg.out[a].second / 2.0;
      f_u += fg.out[a].second;
    }
    for (EdgeIndex a = fg.in_off[u]; a < fg.in_off[u + 1]; ++a)
      flow_to[state.module_of[fg.in[a].first]] += fg.in[a].second / 2.0;
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

struct DiCoarsenResult {
  DiFlow graph;
  std::vector<VertexId> fine_to_coarse;
};

DiCoarsenResult di_coarsen(const DiFlow& fine, const std::vector<VertexId>& mods) {
  std::vector<VertexId> ids(mods);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::unordered_map<VertexId, VertexId> dense;
  for (VertexId i = 0; i < ids.size(); ++i) dense.emplace(ids[i], i);
  const auto k = static_cast<VertexId>(ids.size());

  DiCoarsenResult result;
  result.fine_to_coarse.resize(fine.size());
  for (VertexId u = 0; u < fine.size(); ++u)
    result.fine_to_coarse[u] = dense.at(mods[u]);

  std::vector<std::map<VertexId, double>> coarse_out(k);
  DiFlow& cg = result.graph;
  cg.node_flow.assign(k, 0.0);
  cg.self_flow.assign(k, 0.0);
  for (VertexId u = 0; u < fine.size(); ++u) {
    const VertexId cu = result.fine_to_coarse[u];
    cg.node_flow[cu] += fine.node_flow[u];
    cg.self_flow[cu] += fine.self_flow[u];
    for (EdgeIndex a = fine.out_off[u]; a < fine.out_off[u + 1]; ++a) {
      const VertexId cv = result.fine_to_coarse[fine.out[a].first];
      if (cu == cv)
        cg.self_flow[cu] += fine.out[a].second;
      else
        coarse_out[cu][cv] += fine.out[a].second;
    }
  }
  cg.out_off.assign(static_cast<std::size_t>(k) + 1, 0);
  cg.in_off.assign(static_cast<std::size_t>(k) + 1, 0);
  for (VertexId c = 0; c < k; ++c) {
    cg.out_off[c + 1] = cg.out_off[c] + coarse_out[c].size();
    for (const auto& [t, f] : coarse_out[c]) ++cg.in_off[t + 1];
  }
  for (VertexId c = 0; c < k; ++c) cg.in_off[c + 1] += cg.in_off[c];
  cg.out.resize(cg.out_off.back());
  cg.in.resize(cg.in_off.back());
  std::vector<EdgeIndex> oc(cg.out_off.begin(), cg.out_off.end() - 1);
  std::vector<EdgeIndex> ic(cg.in_off.begin(), cg.in_off.end() - 1);
  for (VertexId c = 0; c < k; ++c) {
    for (const auto& [t, f] : coarse_out[c]) {
      cg.out[oc[c]++] = {t, f};
      cg.in[ic[t]++] = {c, f};
    }
  }
  cg.node_term = fine.node_term;
  return result;
}

}  // namespace

DirectedInfomapResult directed_infomap(const DiCsr& graph,
                                       const DirectedInfomapConfig& config) {
  DINFOMAP_REQUIRE_MSG(graph.num_vertices() > 0, "empty graph");
  const auto rank = pagerank(graph, config.pagerank);
  DiFlow fg = make_di_flow(graph, rank, config.pagerank.damping);

  DirectedInfomapResult result;
  result.assignment.resize(graph.num_vertices());
  std::iota(result.assignment.begin(), result.assignment.end(), 0);
  result.singleton_codelength = singletons(fg).terms.codelength();
  double prev = result.singleton_codelength;

  util::Xoshiro256 rng(config.seed);
  MoveScratch scratch;
  for (int level = 0; level < kSeqMaxLevels; ++level) {
    LevelState state = singletons(fg);
    std::vector<VertexId> order(fg.size());
    std::iota(order.begin(), order.end(), 0);
    for (int pass = 0; pass < kSeqMaxPasses; ++pass) {
      util::deterministic_shuffle(order, rng);
      if (di_move_pass(fg, state, order, scratch) == 0) break;
    }
    result.codelength = state.terms.codelength();
    ++result.levels;

    DiCoarsenResult coarse = di_coarsen(fg, state.module_of);
    for (auto& a : result.assignment) a = coarse.fine_to_coarse[a];
    const bool merged = coarse.graph.size() < fg.size();
    fg = std::move(coarse.graph);
    const double improvement = prev - result.codelength;
    prev = result.codelength;
    if (!merged) break;
    if (level > 0 && improvement < kTheta) break;
  }
  return result;
}

double directed_codelength(const DiCsr& graph,
                           const std::vector<double>& visit_rate,
                           const graph::Partition& module_of, double damping) {
  DINFOMAP_REQUIRE(visit_rate.size() == graph.num_vertices());
  DINFOMAP_REQUIRE(module_of.size() == graph.num_vertices());
  std::unordered_map<VertexId, ModuleStats> mods;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    ModuleStats& m = mods[module_of[u]];
    m.sum_pr += visit_rate[u];
    m.num_members += 1;
    if (graph.out_weight(u) == 0) continue;
    const double share = damping * visit_rate[u] / graph.out_weight(u);
    for (const auto& nb : graph.out_neighbors(u))
      if (module_of[nb.target] != module_of[u]) m.exit_pr += share * nb.weight;
  }
  CodelengthTerms terms;
  for (double p : visit_rate) terms.node_term += plogp(p);
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
