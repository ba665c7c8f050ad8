#include "core/louvain.hpp"

#include <numeric>
#include <unordered_map>

#include "core/coarsen.hpp"
#include "core/flowgraph.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/sparse_accumulator.hpp"

namespace dinfomap::core {

using graph::VertexId;

namespace {
/// Modularity move pass on a FlowGraph (flows make 2W = 1, simplifying the
/// gain formula to ΔQ = f(u,c) − p_u·Σtot(c) versus leaving the old module).
struct LouvainState {
  std::vector<VertexId> module_of;
  std::vector<double> sigma_tot;   ///< Σ of node flows per module
  std::vector<double> internal;    ///< internal flow per module (for Q)

  void init(const FlowGraph& fg) {
    const VertexId n = fg.num_vertices();
    module_of.resize(n);
    std::iota(module_of.begin(), module_of.end(), 0);
    sigma_tot.resize(n);
    internal.resize(n);
    for (VertexId u = 0; u < n; ++u) {
      sigma_tot[u] = fg.node_flow[u];
      internal[u] = 2.0 * fg.self_flow(u);
    }
  }

  [[nodiscard]] double modularity() const {
    double q = 0;
    for (std::size_t c = 0; c < sigma_tot.size(); ++c)
      q += internal[c] - sigma_tot[c] * sigma_tot[c];
    return q;
  }
};

/// One pass over all vertices in `order`: gather each vertex's flow per
/// neighbor community, move it to the best gain in the accumulator's
/// first-touch (= edge) order. Returns the number of moves.
std::uint64_t louvain_pass(const FlowGraph& fg, LouvainState& st,
                           const std::vector<VertexId>& order, double min_gain,
                           util::SparseAccumulator<VertexId, double>& flow_to) {
  if (flow_to.capacity() < fg.num_vertices()) flow_to.reset(fg.num_vertices());
  std::uint64_t moves = 0;
  for (VertexId u : order) {
    flow_to.clear();
    for (const auto& nb : fg.csr.neighbors(u))
      flow_to[st.module_of[nb.target]] += nb.weight;
    const VertexId cur = st.module_of[u];
    const double f_old = flow_to.value_or(cur, 0.0);
    const double p_u = fg.node_flow[u];
    // Gain of moving u from cur to c (2W = 1 in flow units):
    //   ΔQ = 2[f(u,c) − f(u,cur\u)] − 2 p_u [Σtot(c) − (Σtot(cur) − p_u)]
    const double base = f_old - p_u * (st.sigma_tot[cur] - p_u);
    double best_gain = min_gain;
    VertexId best = cur;
    double best_f = 0;
    for (const VertexId c : flow_to.keys()) {
      if (c == cur) continue;
      const double f = *flow_to.find(c);
      const double gain = 2.0 * ((f - p_u * st.sigma_tot[c]) - base);
      if (gain > best_gain + 1e-15 ||
          (gain > best_gain - 1e-15 && best != cur && c < best)) {
        best_gain = gain;
        best = c;
        best_f = f;
      }
    }
    if (best == cur) continue;
    st.sigma_tot[cur] -= p_u;
    st.internal[cur] -= 2.0 * (f_old + fg.self_flow(u));
    st.sigma_tot[best] += p_u;
    st.internal[best] += 2.0 * (best_f + fg.self_flow(u));
    st.module_of[u] = best;
    ++moves;
  }
  return moves;
}
}  // namespace

LouvainResult louvain(const graph::Csr& graph, const LouvainConfig& config) {
  DINFOMAP_REQUIRE_MSG(graph.num_vertices() > 0, "empty graph");
  FlowGraph fg = make_flow_graph(graph);

  LouvainResult result;
  result.assignment.resize(graph.num_vertices());
  std::iota(result.assignment.begin(), result.assignment.end(), 0);

  util::Xoshiro256 rng(config.seed);
  util::SparseAccumulator<VertexId, double> flow_to;
  for (int level = 0; level < config.max_levels; ++level) {
    LouvainState st;
    st.init(fg);
    std::vector<VertexId> order(fg.num_vertices());
    std::iota(order.begin(), order.end(), 0);

    std::uint64_t total_moves = 0;
    for (int pass = 0; pass < config.max_inner_passes; ++pass) {
      util::deterministic_shuffle(order, rng);
      const auto moves = louvain_pass(fg, st, order,
                                      config.min_modularity_gain, flow_to);
      total_moves += moves;
      if (moves == 0) break;
    }
    result.modularity = st.modularity();
    ++result.levels;

    CoarsenResult coarse = coarsen(fg, st.module_of);
    for (auto& a : result.assignment) a = coarse.fine_to_coarse[a];
    const bool merged = coarse.graph.num_vertices() < fg.num_vertices();
    fg = std::move(coarse.graph);
    if (total_moves == 0 || !merged) break;
  }
  return result;
}

}  // namespace dinfomap::core
