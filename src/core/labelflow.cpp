#include "core/labelflow.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "comm/runtime.hpp"
#include "core/coarsen.hpp"
#include "core/flowgraph.hpp"
#include "core/mapequation.hpp"
#include "core/seq_infomap.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/random.hpp"
#include "util/sorted.hpp"
#include "util/timer.hpp"

namespace dinfomap::core {

using graph::VertexId;

namespace {

constexpr int kLabelFlowMaxRounds = 64;  ///< per level
constexpr int kLabelFlowMaxLevels = 8;

/// (vertex, label) wire record for boundary exchange.
struct LabelUpdate {
  VertexId vertex;
  VertexId label;
};

/// Distributed synchronous LPA on one level. The level graph is shared
/// read-only (standing in for each rank re-reading its partition from disk);
/// all mutable state is rank-local and exchanged through comm.
class LpaRank {
 public:
  LpaRank(comm::Comm& comm, const Csr& graph, std::uint64_t seed)
      : comm_(comm),
        graph_(graph),
        rng_(util::derive_seed(seed, static_cast<std::uint64_t>(comm.rank()))) {
    const int p = comm_.size();
    const int r = comm_.rank();
    for (VertexId v = static_cast<VertexId>(r); v < graph_.num_vertices();
         v += static_cast<VertexId>(p))
      owned_.push_back(v);
    for (VertexId v : owned_) labels_[v] = v;
  }

  int rounds() const { return rounds_; }
  const std::vector<VertexId>& owned() const { return owned_; }
  VertexId label_of(VertexId v) const { return labels_.at(v); }
  const perf::WorkCounters& work() const { return work_; }

  void setup_subscriptions() {
    const int p = comm_.size();
    // Which remote vertices do we read? Their owners must push updates to us.
    std::vector<std::vector<VertexId>> wanted(p);
    std::unordered_set<VertexId> seen;
    for (VertexId u : owned_) {
      for (const auto& nb : graph_.neighbors(u)) {
        const int owner = static_cast<int>(nb.target % static_cast<VertexId>(p));
        if (owner == comm_.rank()) continue;
        if (seen.insert(nb.target).second) wanted[owner].push_back(nb.target);
      }
    }
    // Ghost labels start as singleton.
    for (VertexId v : util::sorted_elems(seen)) labels_[v] = v;
    auto requests = comm_.alltoallv(wanted);
    subscribers_.assign(p, {});
    for (int src = 0; src < p; ++src)
      for (VertexId v : requests[src]) subscribers_[src].push_back(v);
  }

  void run() {
    const int p = comm_.size();
    for (rounds_ = 0; rounds_ < kLabelFlowMaxRounds; ++rounds_) {
      std::uint64_t changes = 0;
      std::unordered_map<VertexId, double> weight_to;
      std::vector<LabelUpdate> changed;
      for (VertexId u : owned_) {
        weight_to.clear();
        for (const auto& nb : graph_.neighbors(u)) {
          weight_to[labels_.at(nb.target)] += nb.weight;
          ++work_.arcs_scanned;
        }
        if (weight_to.empty()) continue;
        // Self-loops (intra flow of merged communities at coarse levels)
        // vote for the current label; without this, coarse rings of merged
        // communities keep cascading into one label.
        if (graph_.self_weight(u) > 0)
          weight_to[labels_.at(u)] += 2.0 * graph_.self_weight(u);
        // Flow-weighted vote. Ties keep the current label when it is among
        // the winners and break randomly otherwise — deterministic min-label
        // ties cascade one label across bridges and collapse the clustering.
        const VertexId current = labels_.at(u);
        double best_w = 0;
        // dlint:allow(unordered-iter): FP max is order-insensitive (no
        // accumulation), and every candidate is visited exactly once.
        for (const auto& [lbl, w] : weight_to) {
          ++work_.delta_evals;
          if (w > best_w) best_w = w;
        }
        VertexId best = current;
        const auto cur_it = weight_to.find(current);
        const double cur_w = cur_it != weight_to.end() ? cur_it->second : 0.0;
        if (cur_w < best_w - kTieBand) {
          std::vector<VertexId> winners;
          // dlint:allow(unordered-iter): winners are sorted below before the
          // seeded pick, so collection order cannot escape.
          for (const auto& [lbl, w] : weight_to)
            if (w > best_w - kTieBand) winners.push_back(lbl);
          std::sort(winners.begin(), winners.end());
          best = winners[rng_.bounded(winners.size())];
        }
        if (best != current) {
          labels_[u] = best;
          changed.push_back({u, best});
          ++changes;
          ++work_.module_updates;
        }
      }
      // Push changed labels to subscribers (they filter to what they track).
      std::vector<std::vector<LabelUpdate>> out(p);
      for (int dest = 0; dest < p; ++dest) {
        if (dest == comm_.rank()) continue;
        for (const LabelUpdate& lu : changed) out[dest].push_back(lu);
      }
      auto in = comm_.alltoallv(out);
      for (const auto& batch : in)
        for (const LabelUpdate& lu : batch)
          if (labels_.count(lu.vertex)) labels_[lu.vertex] = lu.label;

      const auto global_changes =
          comm_.allreduce<std::uint64_t>(changes, comm::ReduceOp::kSum);
      if (global_changes == 0) break;
    }
  }

 private:
  comm::Comm& comm_;
  const Csr& graph_;
  std::vector<VertexId> owned_;
  std::unordered_map<VertexId, VertexId> labels_;  // owned + ghosts
  std::vector<std::vector<VertexId>> subscribers_;
  perf::WorkCounters work_;
  util::Xoshiro256 rng_;
  int rounds_ = 0;
};

}  // namespace

LabelFlowResult distributed_labelflow(const graph::Csr& graph, int num_ranks,
                                      const LabelFlowConfig& config) {
  DINFOMAP_REQUIRE_MSG(num_ranks >= 1, "need at least one rank");
  util::Timer wall;

  FlowGraph level = make_flow_graph(graph);
  LabelFlowResult result;
  result.assignment.resize(graph.num_vertices());
  std::iota(result.assignment.begin(), result.assignment.end(), 0);
  result.work_per_rank.assign(num_ranks, {});

  const FlowGraph level0 = level;  // keep for final scoring

  for (int lv = 0; lv < kLabelFlowMaxLevels; ++lv) {
    std::vector<VertexId> final_labels(level.num_vertices());
    util::Mutex sink_mutex;
    int level_rounds = 0;

    auto report = comm::Runtime::run(num_ranks, [&](comm::Comm& comm) {
      LpaRank rank(comm, level.csr,
                   config.seed + static_cast<std::uint64_t>(lv) * 1000003);
      rank.setup_subscriptions();
      rank.run();
      // Centralized merge input: gather owned labels to rank 0 — the
      // framework-style sequential reduce step of the baseline.
      std::vector<LabelUpdate> mine;
      mine.reserve(rank.owned().size());
      for (VertexId v : rank.owned()) mine.push_back({v, rank.label_of(v)});
      auto gathered = comm.gatherv_bytes(
          0, std::as_bytes(std::span<const LabelUpdate>(mine)));
      util::MutexLock lock(sink_mutex);
      result.work_per_rank[comm.rank()] += rank.work();
      level_rounds = std::max(level_rounds, rank.rounds());
      if (comm.rank() == 0) {
        for (const auto& buf : gathered) {
          const auto* updates = reinterpret_cast<const LabelUpdate*>(buf.data());
          for (std::size_t i = 0; i < buf.size() / sizeof(LabelUpdate); ++i)
            final_labels[updates[i].vertex] = updates[i].label;
        }
      }
    });
    perf::add_comm_totals(result.work_per_rank, report.counters);
    result.total_rounds += level_rounds;

    CoarsenResult coarse = coarsen(level, final_labels);
    for (auto& a : result.assignment) a = coarse.fine_to_coarse[a];
    const bool merged = coarse.graph.num_vertices() < level.num_vertices();
    level = std::move(coarse.graph);
    if (!merged || level.num_vertices() <= 1) break;
  }

  result.codelength = codelength_of_partition(level0, result.assignment);
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace dinfomap::core
