// The map equation (Rosvall–Axelsson–Bergstrom 2009) — Eq. 3 of the paper:
//
//   L(M) = plogp(q_tot) − 2·Σ_m plogp(q_m) − Σ_α plogp(p_α)
//          + Σ_m plogp(q_m + p_m)
//
// with plogp(x) = x·log2(x), p_α the stationary visit probability of vertex
// α, q_m the exit probability of module m, q_tot = Σ_m q_m. All quantities
// here are *flows*: edge weights normalized by 2W at the finest level, so the
// same formulas hold unchanged at every coarsening level.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/types.hpp"
#include "util/sparse_accumulator.hpp"

namespace dinfomap::core {

/// Stop rules shared by every Infomap engine, sequential and distributed.
/// Outer improvement threshold θ (Alg. 1 line 31): the level loop stops once
/// a level improves L by less than this.
inline constexpr double kTheta = 1e-10;
/// A move must lower L by more than this to count as improving.
inline constexpr double kMoveEpsilon = 1e-14;
/// Two ΔL (or gains) closer than this are a tie.
inline constexpr double kTieBand = 1e-15;
/// Level and move-pass caps of the sequential Infomap engines (sequential,
/// directed, RelaxMap, and the hierarchical search through sequential).
inline constexpr int kSeqMaxLevels = 20;
inline constexpr int kSeqMaxPasses = 64;

/// x·log2(x), continuously extended with plogp(0) = 0.
inline double plogp(double x) { return x > 1e-300 ? x * std::log2(x) : 0.0; }

/// Direct-mapped memo for plogp. A move-search round evaluates plogp on the
/// same handful of values over and over: all old-module terms and plogp(q)
/// are constant across a vertex's candidates, and popular target modules
/// repeat their (exit_pr, sum_pr) across vertices until they absorb a move.
/// The cache is keyed on the exact bit pattern of x and stores the exact
/// plogp(x), so a hit returns bit-identical results to the uncached path —
/// memoization never changes the numerics, only skips repeated log2 calls.
/// 4096 entries × 16 B = 64 KiB, one cache line per probe.
class PlogpMemo {
 public:
  double operator()(double x) {
    if (x <= 1e-300) return 0.0;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    Entry& e = entries_[(bits * 0x9E3779B97F4A7C15ull) >> (64 - kLogSlots)];
    if (e.key_bits == bits) return e.value;
    const double v = x * std::log2(x);
    e.key_bits = bits;
    e.value = v;
    return v;
  }

 private:
  struct Entry {
    // Initial key is a NaN bit pattern, which no input x can equal (flows
    // are finite), so virgin slots never produce a false hit.
    std::uint64_t key_bits = ~std::uint64_t{0};
    double value = 0;
  };
  static constexpr int kLogSlots = 12;
  std::array<Entry, std::size_t{1} << kLogSlots> entries_{};
};

/// Aggregate statistics of one module.
struct ModuleStats {
  double sum_pr = 0;   ///< p_m: Σ visit probability of members
  double exit_pr = 0;  ///< q_m: flow crossing the module boundary
  std::uint64_t num_members = 0;
};

/// The four running sums from which L(M) is evaluated. `node_term`
/// (Σ plogp(p_α) over *level-0* vertices) never changes during clustering or
/// coarsening, so it is computed once and carried.
struct CodelengthTerms {
  double q_total = 0;
  double sum_plogp_q = 0;       ///< Σ_m plogp(q_m)
  double sum_plogp_q_plus_p = 0;///< Σ_m plogp(q_m + p_m)
  double node_term = 0;         ///< Σ_α plogp(p_α), level 0

  [[nodiscard]] double codelength() const {
    return plogp(q_total) - 2.0 * sum_plogp_q - node_term + sum_plogp_q_plus_p;
  }
};

/// Inputs for the ΔL of moving one vertex (or coarse block) u between
/// modules. `old_stats` describes u's current module *including* u;
/// `new_stats` the candidate module *excluding* u.
struct MoveDelta {
  double p_u = 0;          ///< node flow of u
  double f_u = 0;          ///< total flow on u's non-self arcs (u's solo exit)
  double f_to_old = 0;     ///< flow from u to old module's other members
  double f_to_new = 0;     ///< flow from u to the candidate module
  ModuleStats old_stats;
  ModuleStats new_stats;
  double q_total = 0;      ///< current Σ_m q_m
};

/// Updated module statistics after the move described by `d`.
struct MoveOutcome {
  ModuleStats old_after;
  ModuleStats new_after;
  double delta_q_total = 0;
  double delta_codelength = 0;
};

/// Evaluate the codelength change of a move (negative = improvement).
/// Undirected flow algebra: removing u from A changes q_A by −f_u + 2·f(u,A);
/// adding u to B changes q_B by +f_u − 2·f(u,B).
MoveOutcome evaluate_move(const MoveDelta& d);

/// Same evaluation with plogp calls routed through `memo` — the one every
/// move search uses. Bit-identical to the plain overload (the memo caches
/// exact values), which stays as the reference the tests compare against.
MoveOutcome evaluate_move(const MoveDelta& d, PlogpMemo& memo);

/// The ΔL tie rule of every Infomap move search: a move of ΔL `delta` into
/// module `mod` beats the best so far when it is lower by more than
/// kTieBand, or within the band and into a smaller module id.
inline bool better_move(double delta, graph::VertexId mod, double best_delta,
                        graph::VertexId best_mod) {
  return delta < best_delta - kTieBand ||
         (delta < best_delta + kTieBand && mod < best_mod);
}

/// Reusable scratch of a move search: u's flow per neighbour module (module
/// ids are below the level's vertex count) and the plogp memo.
struct MoveScratch {
  util::SparseAccumulator<graph::VertexId, double> flow_to;
  PlogpMemo memo;
};

/// Candidate selection of the sequential engines: evaluate moving a vertex
/// from module `cur` into each module of `scratch.flow_to`, in first-touch
/// order, and keep the best under better_move. The caller gathers flow_to
/// (each engine its own way); `p_u` and `f_u` are as in MoveDelta, `modules`
/// is the module table and `q_total` the Σq the ΔL is taken against.
/// Returns `cur` when no candidate lowers L by more than kMoveEpsilon, else
/// the target, with its outcome in `best`.
graph::VertexId select_move(MoveScratch& scratch, graph::VertexId cur,
                            double p_u, double f_u,
                            const std::vector<ModuleStats>& modules,
                            double q_total, MoveOutcome& best);

/// The module table of one level of a sequential engine: each vertex's
/// module, statistics per module id (ids are the level's vertex ids) and
/// the incrementally maintained codelength terms.
struct LevelState {
  std::vector<graph::VertexId> module_of;
  std::vector<ModuleStats> modules;
  CodelengthTerms terms;
  graph::VertexId live_modules = 0;

  /// Every vertex alone: vertex u in module u with visit rate node_flow[u]
  /// and exit flow exit_flow(u).
  template <typename ExitFlow>
  void init_singletons(const std::vector<double>& node_flow, double node_term,
                       ExitFlow&& exit_flow) {
    const auto n = static_cast<graph::VertexId>(node_flow.size());
    module_of.resize(n);
    std::iota(module_of.begin(), module_of.end(), 0);
    modules.assign(n, ModuleStats{});
    terms = CodelengthTerms{};
    terms.node_term = node_term;
    for (graph::VertexId u = 0; u < n; ++u) {
      ModuleStats& m = modules[u];
      m.sum_pr = node_flow[u];
      m.exit_pr = exit_flow(u);
      m.num_members = 1;
      terms.q_total += m.exit_pr;
      terms.sum_plogp_q += plogp(m.exit_pr);
      terms.sum_plogp_q_plus_p += plogp(m.exit_pr + m.sum_pr);
    }
    live_modules = n;
  }

  /// Move u into `target`, with the statistics `out` evaluated for it.
  void apply(graph::VertexId u, graph::VertexId target, const MoveOutcome& out);
};

}  // namespace dinfomap::core
