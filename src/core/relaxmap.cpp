#include "core/relaxmap.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "core/coarsen.hpp"
#include "core/flowgraph.hpp"
#include "core/mapequation.hpp"
#include "core/relaxmap_sync.hpp"
#include "core/seq_infomap.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/sparse_accumulator.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace dinfomap::core {

using graph::VertexId;

namespace {

// SpinLock and ModulePairGuard live in core/relaxmap_sync.hpp so the dcheck
// pair-ordering harness exercises the same implementation.

// Module state (module_of, modules, q_total_snapshot) is deliberately *not*
// DI_GUARDED_BY the per-module spinlocks: RelaxMap's published consistency
// model evaluates moves against possibly-stale values read lock-free, and
// only move *application* is serialized. Annotating the members would force
// escape hatches onto every by-design racy read; instead the race stays
// confined to this file and TSan runs exclude RelaxMap (see DESIGN.md §10).
struct SharedLevel {
  std::vector<VertexId> module_of;
  std::vector<ModuleStats> modules;
  std::unique_ptr<SpinLock[]> locks;
  double q_total_snapshot = 0;  // refreshed between passes

  void init(const FlowGraph& fg) {
    const VertexId n = fg.num_vertices();
    module_of.resize(n);
    std::iota(module_of.begin(), module_of.end(), 0);
    modules.assign(n, ModuleStats{});
    locks = std::make_unique<SpinLock[]>(n);
    for (VertexId u = 0; u < n; ++u) {
      modules[u] = {fg.node_flow[u], fg.out_flow(u), 1};
    }
    refresh_q_total();
  }

  void refresh_q_total() {
    double q = 0;
    for (const auto& m : modules)
      if (m.num_members > 0) q += m.exit_pr;
    q_total_snapshot = q;
  }
};

/// One thread's pass over its vertex stripe; returns its move count.
std::uint64_t stripe_pass(const FlowGraph& fg, SharedLevel& shared,
                          int thread_id, int num_threads) {
  std::uint64_t moves = 0;
  // Thread-private scratch: one allocation per pass instead of hash-bucket
  // churn per vertex.
  MoveScratch scratch;
  auto& flow_to = scratch.flow_to;
  const VertexId n = fg.num_vertices();
  flow_to.reset(n);
  for (VertexId u = static_cast<VertexId>(thread_id); u < n;
       u += static_cast<VertexId>(num_threads)) {
    const VertexId cur = shared.module_of[u];
    flow_to.clear();
    double f_u = 0;
    for (const auto& nb : fg.csr.neighbors(u)) {
      flow_to[shared.module_of[nb.target]] += nb.weight;  // relaxed read
      f_u += nb.weight;
    }
    // Module statistics are relaxed reads too; the outcome is re-derived
    // under the locks below.
    MoveOutcome unused;
    const VertexId best =
        select_move(scratch, cur, fg.node_flow[u], f_u, shared.modules,
                    shared.q_total_snapshot, unused);
    if (best == cur) continue;
    const double f_to_old = flow_to.value_or(cur, 0.0);

    // Serialize the application on the two modules (id order).
    {
      const VertexId lo = std::min(cur, best), hi = std::max(cur, best);
      ModulePairGuard guard(shared.locks[lo],
                            lo != hi ? &shared.locks[hi] : nullptr);
      // Re-derive the stat updates under the locks from current values.
      ModuleStats& old_m = shared.modules[cur];
      ModuleStats& new_m = shared.modules[best];
      old_m.sum_pr -= fg.node_flow[u];
      old_m.exit_pr += -f_u + 2.0 * f_to_old;
      old_m.num_members = old_m.num_members > 0 ? old_m.num_members - 1 : 0;
      new_m.sum_pr += fg.node_flow[u];
      new_m.exit_pr += f_u - 2.0 * *flow_to.find(best);
      new_m.num_members += 1;
      shared.module_of[u] = best;
    }
    ++moves;
  }
  return moves;
}

}  // namespace

RelaxMapResult relaxmap(const graph::Csr& graph, const RelaxMapConfig& config) {
  DINFOMAP_REQUIRE_MSG(graph.num_vertices() > 0, "empty graph");
  DINFOMAP_REQUIRE_MSG(config.num_threads >= 1, "need at least one thread");
  util::Timer wall;

  FlowGraph fg = make_flow_graph(graph);
  const FlowGraph level0 = fg;

  RelaxMapResult result;
  result.assignment.resize(graph.num_vertices());
  std::iota(result.assignment.begin(), result.assignment.end(), 0);
  result.singleton_codelength =
      codelength_of_partition(level0, result.assignment);

  double prev = result.singleton_codelength;
  // One persistent pool for the whole run: stripes were previously fresh
  // std::threads per pass, paying a spawn/join per inner pass. Slot s runs
  // stripe s; passes with fewer vertices than threads shrink the stripe
  // count and leave the extra slots idle.
  util::ThreadPool pool(config.num_threads);
  std::vector<std::uint64_t> slot_moves(
      static_cast<std::size_t>(pool.num_threads()), 0);
  for (int level = 0; level < kSeqMaxLevels; ++level) {
    SharedLevel shared;
    shared.init(fg);

    for (int pass = 0; pass < kSeqMaxPasses; ++pass) {
      const int t_count =
          std::min<int>(config.num_threads, static_cast<int>(fg.num_vertices()));
      std::fill(slot_moves.begin(), slot_moves.end(), 0);
      pool.run_slots([&](int slot) {
        if (slot >= t_count) return;
        slot_moves[static_cast<std::size_t>(slot)] =
            stripe_pass(fg, shared, slot, t_count);
      });
      std::uint64_t moves = 0;
      for (const auto m : slot_moves) moves += m;
      shared.refresh_q_total();
      if (moves == 0) break;
    }

    CoarsenResult coarse = coarsen(fg, shared.module_of);
    for (auto& a : result.assignment) a = coarse.fine_to_coarse[a];
    const bool merged = coarse.graph.num_vertices() < fg.num_vertices();
    fg = std::move(coarse.graph);
    ++result.levels;

    result.codelength = codelength_of_partition(level0, result.assignment);
    const double improvement = prev - result.codelength;
    prev = result.codelength;
    if (!merged) break;
    if (level > 0 && improvement < kTheta) break;
  }
  result.wall_seconds = wall.seconds();
  return result;
}

}  // namespace dinfomap::core
