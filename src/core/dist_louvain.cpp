#include "core/dist_louvain.hpp"

#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "comm/runtime.hpp"
#include "core/coarsen.hpp"
#include "core/flowgraph.hpp"
#include "quality/metrics.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/random.hpp"
#include "util/sorted.hpp"
#include "util/timer.hpp"

namespace dinfomap::core {

using graph::VertexId;

namespace {

struct LabelUpdate {
  VertexId vertex;
  VertexId community;
};
struct MassPartial {
  VertexId community;
  double sigma;  ///< Σ node flows of members controlled by the sender
};
struct MassTotal {
  VertexId community;
  double sigma;
};

/// Uniform flow-scaled adjacency for one Louvain level. Level 0 streams
/// straight from the GraphView (resident or out-of-core), scaling each arc
/// weight by 1/2W on the fly — the same division make_flow_graph bakes into
/// its rebuilt CSR, so both routes feed bit-identical flows to the rank.
/// Coarser levels wrap the vertex-proportional contracted FlowGraph. One
/// instance per rank: it owns that rank's block cursor.
class FlowAccess {
 public:
  explicit FlowAccess(const FlowGraph& fg) : fg_(&fg) {}
  FlowAccess(const graph::GraphView& view, const NodeFlows& nf)
      : view_(&view), nf_(&nf), cursor_(view.cursor()) {}

  [[nodiscard]] VertexId num_vertices() const {
    return fg_ != nullptr ? fg_->num_vertices() : view_->num_vertices();
  }
  [[nodiscard]] double node_flow(VertexId u) const {
    return fg_ != nullptr ? fg_->node_flow[u] : nf_->node_flow[u];
  }
  /// Visit u's arcs in stored order as fn(target, flow).
  template <typename Fn>
  void for_neighbors(VertexId u, Fn&& fn) {
    if (fg_ != nullptr) {
      for (const auto& nb : fg_->csr.neighbors(u)) fn(nb.target, nb.weight);
    } else {
      for (const auto& nb : view_->neighbors(u, cursor_))
        fn(nb.target, nb.weight / nf_->two_w);
    }
  }

 private:
  const FlowGraph* fg_ = nullptr;
  const graph::GraphView* view_ = nullptr;
  const NodeFlows* nf_ = nullptr;
  graph::GraphView::Cursor cursor_;
};

/// One rank of the distributed Louvain level. All flows are normalized
/// (2W = 1), so ΔQ = 2[f(u,c) − f(u,cur∖u)] − 2·p_u[Σtot(c) − (Σtot(cur)−p_u)].
class LouvainRank {
 public:
  LouvainRank(comm::Comm& comm, FlowAccess& fa, const DistLouvainConfig& cfg)
      : comm_(comm), fa_(fa), cfg_(cfg) {
    const auto p = static_cast<VertexId>(comm_.size());
    for (VertexId v = static_cast<VertexId>(comm_.rank());
         v < fa_.num_vertices(); v += p)
      owned_.push_back(v);
    for (VertexId v : owned_) community_[v] = v;
  }

  const std::vector<VertexId>& owned() const { return owned_; }
  VertexId community_of(VertexId v) const { return community_.at(v); }
  const perf::WorkCounters& work() const { return work_; }
  int rounds() const { return rounds_; }

  void setup() {
    const int p = comm_.size();
    std::vector<std::vector<VertexId>> wanted(p);
    std::unordered_set<VertexId> ghosts;
    for (VertexId u : owned_) {
      fa_.for_neighbors(u, [&](VertexId t, double) {
        const int owner = static_cast<int>(t % static_cast<VertexId>(p));
        if (owner == comm_.rank()) return;
        if (ghosts.insert(t).second) wanted[owner].push_back(t);
      });
    }
    for (VertexId g : util::sorted_elems(ghosts)) community_[g] = g;
    auto requests = comm_.alltoallv(wanted);
    for (int src = 0; src < p; ++src)
      for (VertexId v : requests[src]) subscribers_[v].push_back(src);
    sync_masses();
  }

  void run(util::Xoshiro256& rng) {
    std::vector<VertexId> order = owned_;
    for (rounds_ = 0; rounds_ < cfg_.max_rounds; ++rounds_) {
      util::deterministic_shuffle(order, rng);
      std::vector<LabelUpdate> changed;
      std::uint64_t moves = 0;
      std::unordered_map<VertexId, double> flow_to;
      for (VertexId u : order) {
        const VertexId cur = community_.at(u);
        flow_to.clear();
        fa_.for_neighbors(u, [&](VertexId t, double f) {
          flow_to[community_.at(t)] += f;
          ++work_.arcs_scanned;
        });
        if (flow_to.empty()) continue;
        const double p_u = fa_.node_flow(u);
        const auto f_old_it = flow_to.find(cur);
        const double f_old = f_old_it != flow_to.end() ? f_old_it->second : 0.0;
        const auto sigma_it = sigma_.find(cur);
        const double sigma_cur =
            sigma_it != sigma_.end() ? sigma_it->second : p_u;
        const double base = f_old - p_u * (sigma_cur - p_u);
        double best_gain = cfg_.min_gain;
        VertexId best = cur;
        // dlint:allow(unordered-iter): candidate scan is order-insensitive
        // — the min-label tie-break inside the epsilon band picks the same
        // winner for any iteration order (anti-bouncing argument, §3.4).
        for (const auto& [c, f] : flow_to) {
          if (c == cur) continue;
          // Anti-swap: on even rounds only label-decreasing remote moves
          // (same damping rule as the distributed Infomap).
          if (rounds_ % 2 == 0 && c > cur) continue;
          auto it = sigma_.find(c);
          if (it == sigma_.end()) continue;
          const double gain = 2.0 * ((f - p_u * it->second) - base);
          ++work_.delta_evals;
          if (gain > best_gain + 1e-15 ||
              (gain > best_gain - 1e-15 && best != cur && c < best)) {
            best_gain = gain;
            best = c;
          }
        }
        if (best != cur) {
          sigma_[cur] -= p_u;
          sigma_[best] += p_u;
          community_[u] = best;
          changed.push_back({u, best});
          ++moves;
          ++work_.module_updates;
        }
      }
      // Ghost label exchange.
      const int p = comm_.size();
      std::vector<std::vector<LabelUpdate>> out(p);
      for (const LabelUpdate& lu : changed) {
        auto sub = subscribers_.find(lu.vertex);
        if (sub == subscribers_.end()) continue;
        for (int dest : sub->second) out[dest].push_back(lu);
      }
      auto in = comm_.alltoallv(out);
      for (const auto& batch : in)
        for (const LabelUpdate& lu : batch) community_[lu.vertex] = lu.community;

      sync_masses();
      const auto total_moves =
          comm_.allreduce<std::uint64_t>(moves, comm::ReduceOp::kSum);
      if (total_moves == 0) break;
    }
  }

 private:
  /// Exact Σtot per referenced community via home-rank reduction — the
  /// modularity analogue of the Infomap module-info swap.
  void sync_masses() {
    const int p = comm_.size();
    std::unordered_map<VertexId, double> partial;
    for (VertexId u : owned_) partial[community_.at(u)] += fa_.node_flow(u);
    // Declarations for every referenced community.
    // dlint:allow(unordered-iter): keys-only pass feeding try_emplace into
    // another map — no FP reduction, no ordering escapes this statement.
    for (const auto& [v, c] : community_) partial.try_emplace(c, 0.0);

    // Sorted community order: the wire layout (and the home rank's FP
    // accumulation order over it) must not depend on hash layout.
    std::vector<std::vector<MassPartial>> to_home(p);
    for (const VertexId c : util::sorted_keys(partial))
      to_home[c % static_cast<VertexId>(p)].push_back({c, partial.at(c)});
    auto partials_in = comm_.alltoallv(to_home);

    std::unordered_map<VertexId, double> homed;
    std::unordered_map<VertexId, std::vector<int>> interest;
    for (int src = 0; src < p; ++src) {
      for (const MassPartial& mp : partials_in[src]) {
        homed[mp.community] += mp.sigma;
        interest[mp.community].push_back(src);
      }
    }
    std::vector<std::vector<MassTotal>> reply(p);
    for (const VertexId c : util::sorted_keys(homed))
      for (int dest : interest.at(c)) reply[dest].push_back({c, homed.at(c)});
    auto totals_in = comm_.alltoallv(reply);
    sigma_.clear();
    for (const auto& batch : totals_in)
      for (const MassTotal& mt : batch) sigma_[mt.community] = mt.sigma;
  }

  comm::Comm& comm_;
  FlowAccess& fa_;
  const DistLouvainConfig& cfg_;
  std::vector<VertexId> owned_;
  std::unordered_map<VertexId, VertexId> community_;  // owned + ghosts
  std::unordered_map<VertexId, double> sigma_;        // exact Σtot per community
  std::unordered_map<VertexId, std::vector<int>> subscribers_;
  perf::WorkCounters work_;
  int rounds_ = 0;
};

}  // namespace

DistLouvainResult distributed_louvain(const graph::GraphView& graph,
                                      const DistLouvainConfig& config) {
  DINFOMAP_REQUIRE_MSG(config.num_ranks >= 1, "need at least one rank");
  util::Timer wall;

  // Level 0 streams flows from the view (each rank scales arcs by 1/2W on
  // the fly), so the blocks backend never materializes a flow-weighted CSR
  // of the full edge set. The contraction after level 0 produces an
  // ordinary vertex-proportional FlowGraph for the coarser levels.
  const NodeFlows flows = compute_node_flows(graph);
  DistLouvainResult result;
  result.assignment.resize(graph.num_vertices());
  std::iota(result.assignment.begin(), result.assignment.end(), 0);
  result.work_per_rank.assign(config.num_ranks, {});

  FlowGraph level;  // levels ≥ 1 only
  for (int lv = 0; lv < config.max_levels; ++lv) {
    const bool level0 = lv == 0;
    const VertexId level_n =
        level0 ? graph.num_vertices() : level.num_vertices();
    std::vector<VertexId> labels(level_n);
    util::Mutex sink_mutex;
    int level_rounds = 0;

    auto report = comm::Runtime::run(config.num_ranks, [&](comm::Comm& comm) {
      FlowAccess fa = level0 ? FlowAccess(graph, flows) : FlowAccess(level);
      LouvainRank rank(comm, fa, config);
      rank.setup();
      util::Xoshiro256 rng(util::derive_seed(
          config.seed + static_cast<std::uint64_t>(lv) * 7919,
          static_cast<std::uint64_t>(comm.rank())));
      rank.run(rng);
      // Centralized contraction input, as in the cited MPI Louvains.
      std::vector<LabelUpdate> mine;
      for (VertexId v : rank.owned()) mine.push_back({v, rank.community_of(v)});
      auto gathered =
          comm.gatherv(0, mine);
      util::MutexLock lock(sink_mutex);
      result.work_per_rank[comm.rank()] += rank.work();
      level_rounds = std::max(level_rounds, rank.rounds());
      if (comm.rank() == 0) {
        for (const auto& batch : gathered)
          for (const LabelUpdate& lu : batch) labels[lu.vertex] = lu.community;
      }
    });
    perf::add_comm_totals(result.work_per_rank, report.counters);
    result.total_rounds += level_rounds;
    ++result.levels;

    CoarsenResult coarse = level0 ? coarsen_level0(graph, flows, labels)
                                  : coarsen(level, labels);
    for (auto& a : result.assignment) a = coarse.fine_to_coarse[a];
    const bool merged = coarse.graph.num_vertices() < level_n;
    level = std::move(coarse.graph);
    if (!merged || level.num_vertices() <= 1) break;
  }

  result.modularity = quality::modularity(graph, result.assignment);
  result.wall_seconds = wall.seconds();
  return result;
}

DistLouvainResult distributed_louvain(const graph::GraphView& graph,
                                      int num_ranks) {
  DistLouvainConfig config;
  config.num_ranks = num_ranks;
  return distributed_louvain(graph, config);
}

}  // namespace dinfomap::core
