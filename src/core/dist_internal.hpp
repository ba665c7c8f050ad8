// Internal per-rank state of the distributed Infomap. Not part of the public
// API; included by dist_setup.cpp / dist_infomap.cpp and by whitebox tests.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/comm.hpp"
#include "core/dist_infomap.hpp"
#include "core/mapequation.hpp"
#include "core/module_info.hpp"
#include "obs/recorder.hpp"
#include "partition/arc_partition.hpp"
#include "perf/work_counters.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/sparse_accumulator.hpp"
#include "util/timer.hpp"
#include "util/worklist.hpp"

namespace dinfomap::core::detail {

using graph::VertexId;

struct DistRankTestPeer;  // whitebox access for tests (phase-level probes)

/// Role of a vertex in this rank's local view.
enum class Kind : std::uint8_t {
  kOwned,     ///< low-degree vertex owned here (full adjacency local)
  kDelegate,  ///< hub duplicated on all ranks (partial adjacency local)
  kGhost,     ///< remote low-degree vertex seen as an arc target
};

/// Sync sub-round class of vertex `v` in round `round` of level `level`
/// (DESIGN.md §5 "Sub-rounds"): a seeded SplitMix64 hash, so every rank that
/// holds `v` computes the same class without communication. A split vertex is
/// evaluated in that round only when its class is round mod kSubRounds.
[[nodiscard]] inline int sub_round_class(std::uint64_t seed, int level,
                                         int round, VertexId v) {
  const std::uint64_t level_round =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level)) << 32) |
      static_cast<std::uint32_t>(round);
  std::uint64_t h = util::mix64(seed);
  h = util::mix64(h ^ level_round);
  h = util::mix64(h ^ v);
  return static_cast<int>(h % kSubRounds);
}

/// One rank of the distributed algorithm. The per-rank job body runs
/// `execute()` on every rank, over either transport; shared read-only inputs
/// are the graph and its partition (stage 1's "file on the parallel
/// filesystem"); everything mutable is rank-local and exchanged via messages.
class DistRank {
 public:
  /// `part` must be valid for `graph` (partition::validate_partition).
  DistRank(comm::Comm& comm, const graph::GraphView& graph,
           const partition::ArcPartition& part, const DistInfomapConfig& cfg,
           obs::Recorder* recorder = nullptr);

  /// Runs preprocessing, stage 1, merging, and stage 2. After return, the
  /// sinks below carry this rank's outputs.
  void execute();

  // ---- outputs (read by the job body once execute() returns) ------------
  double codelength() const { return codelength_; }
  double singleton_codelength() const { return singleton_codelength_; }
  const std::vector<OuterIterationInfo>& trace() const { return trace_; }
  int stage1_rounds() const { return stage1_rounds_; }
  const std::vector<double>& stage1_round_codelengths() const {
    return round_mdl_;
  }
  int stage2_levels() const { return stage2_levels_; }
  /// Why each level's loop stopped (one entry per trace() row), and why
  /// stage 2 ended.
  const std::vector<LevelStop>& level_stops() const { return level_stops_; }
  Stage2End stage2_ended_by() const { return stage2_ended_by_; }
  double stage1_seconds() const { return stage1_seconds_; }
  double stage2_seconds() const { return stage2_seconds_; }
  const perf::WorkCounters& work(Phase ph) const {
    return work_[static_cast<int>(ph)];
  }
  /// Total work during stage 1 (all phases) and during stage 2.
  perf::WorkCounters stage_work(int stage) const;
  double phase_seconds(Phase ph) const {
    return phase_sec_[static_cast<int>(ph)];
  }
  /// Global vertex count of every level: n0 first, then each merge's.
  const std::vector<VertexId>& level_sizes() const { return level_sizes_; }
  /// This rank's level maps, one segment per entry of level_sizes(): for
  /// every level, the vertices v ≡ rank (mod p) in ascending order; each
  /// non-final level maps v to its coarse vertex at the next level, the last
  /// one to its final module (a last-level vertex id).
  const std::vector<VertexId>& level_maps() const { return level_maps_; }

 private:
  friend struct DistRankTestPeer;

  /// A vertex's module is not here but in module_of_: the move search reads
  /// a neighbour's module on every arc and never needs the rest.
  struct LocalVertex {
    VertexId global = 0;
    Kind kind = Kind::kGhost;
    /// 1 iff a move of this vertex can conflict with a same-round move on
    /// another rank: an owned vertex with an arc to a ghost, or a hub when
    /// p > 1. Such a vertex moves only in its sync sub-round (see
    /// sub_round_class). Set by mark_boundary_arcs.
    std::uint8_t split = 0;
    double node_flow = 0;  ///< exact for owned/delegate; unused for ghosts
    double out_flow = 0;   ///< total flow on non-self arcs (exact when known)
    double self_flow = 0;  ///< coarse-level intra flow
  };
  static_assert(sizeof(LocalVertex) == 32);
  struct LocalArc {
    std::uint32_t target = 0;  ///< local index
    /// 1 iff the target is not owned here (a ghost or a hub), so the move
    /// search learns it without reading the target's LocalVertex. Set once
    /// per level by mark_boundary_arcs, after the kinds are final.
    std::uint8_t boundary = 0;
    double flow = 0;
  };
  static_assert(sizeof(LocalArc) == 16);

  // ---- setup -------------------------------------------------------------
  void setup_stage1(const graph::GraphView& graph,
                    const partition::ArcPartition& part);
  /// Build verts_/arcs_ from runs of (source,target,flow) triples, one run
  /// per sender in rank order; callers must then fill kinds/flows. Sources
  /// must all be local-movable. Each run only needs a (source,target)-sorted
  /// prefix — its unsorted suffix is sorted and merged in — and the runs are
  /// merged stably, so a pair's duplicates sum in run order, then in
  /// within-run order. Consumes `runs`.
  void build_local_graph(std::vector<std::vector<CoarseArc>>& runs,
                         int num_ranks_mod, VertexId level_n);
  /// One source's slice of arcs_ while the rank graph is being built.
  struct SourceRow {
    VertexId source = 0;
    std::uint32_t end = 0;  ///< one past the row's last arc in arcs_
    double self_flow = 0;
  };
  /// The one installer of a rank graph, for every level: arcs_ holds the
  /// non-self arcs with *global* targets, grouped by source in the order of
  /// `rows` (ascending sources, each row target-sorted without duplicates).
  /// Takes the vertex universe from the arc endpoints plus every vertex
  /// owned here, fills verts_/local_of_/arc_off_, relabels targets to local
  /// indices and sums each vertex's out-flow.
  void install_local_graph(const std::vector<SourceRow>& rows,
                           int num_ranks_mod, VertexId level_n);
  void setup_subscriptions();
  /// Set every arc's boundary bit from its target's kind and every vertex's
  /// split bit; called at setup and after every merge, once the level's
  /// kinds are final.
  void mark_boundary_arcs();
  /// Every vertex its own module: module_of_ is the identity, and modules_
  /// holds each non-ghost, non-settled vertex's stats. The one sizing point
  /// of every per-level table: the module-id-indexed ones (modules_, nbflow_,
  /// partial_acc_, homed_'s slots, and with async stat_stamp_ and
  /// prev_modules_) and the per-local-vertex ones (dirty_flag_, and with
  /// async the stamp, evaluation and margin arrays).
  void init_singleton_modules();
  /// Append per_local[li] of every vertex this rank owns at the current
  /// level, in ascending id order, as the next segment of level_maps_.
  void append_level_map(const std::vector<VertexId>& per_local);

  // ---- one synchronous round (either stage) ------------------------------
  struct RoundResult {
    std::uint64_t local_moves = 0;
    std::uint64_t hub_moves = 0;
    std::uint64_t global_moves = 0;
  };
  RoundResult round(bool with_delegates, util::Xoshiro256& rng);
  /// One level of synchronous rounds until a stop rule fires: no moves, an
  /// overshoot, a gain below kRoundTheta after kMinRounds, or kMaxRounds.
  /// Adds the level's moves and rounds to `info`; returns the rule.
  LevelStop sync_level(bool with_delegates, OuterIterationInfo& info,
                       util::Xoshiro256& rng);
  /// A level must not end above the L it began with: if it does, every
  /// vertex returns to its singleton module and one resync restores
  /// `codelength_before` bit for bit, so the level merges nothing. The async
  /// engine's rollback already guarantees this; a sync level whose last
  /// round overshot needs it.
  void undo_worse_level(double codelength_before);
  /// After every round (or async reconciliation) that ends on an exact L:
  /// stage 1 counts it and keeps its MDL (the per-round series of Fig. 4).
  void note_exact_round() {
    if (current_level_ != 0) return;
    ++stage1_rounds_;
    round_mdl_.push_back(codelength_);
  }

  /// Prefetch ahead of vertex order[i] along the visit order, so the loads
  /// of order[i + k] are in flight while order[i] is evaluated: its row
  /// bounds, record and module id at k = 16, its first arcs and own module
  /// entry at k = 8, the module ids of its first 8 targets at k = 4, and the
  /// nbflow_ slots of its first 4 targets' modules at k = 2. Each stage
  /// reads only what an earlier one fetched. Hints only: every address is
  /// that of an in-range element, and no result can change.
  void prefetch_visit(const std::vector<std::uint32_t>& order,
                      std::size_t i) const;
  /// Phase 1: greedy pass; immediate moves for owned, proposals for hubs.
  /// A split vertex is evaluated only in its sub-round (sub_round_class);
  /// under exact_hub_moves the hubs are left to the exact phase.
  std::uint64_t find_best_modules(bool with_delegates, util::Xoshiro256& rng,
                                  std::vector<HubProposal>& proposals);
  /// Phase 2: allgather hub proposals, apply global argmin moves everywhere.
  std::uint64_t broadcast_delegates(std::vector<HubProposal>& proposals);
  /// Phase 2 variant (exact_hub_moves): reduce per-hub flow maps at hub
  /// owners, who compute the move from exact global flows; decisions are
  /// then allgathered and applied like broadcast_delegates.
  std::uint64_t broadcast_delegates_exact();
  /// Apply globally-agreed hub decisions to module_of_ (the module table
  /// waits for the round's swap).
  std::uint64_t apply_hub_winners(const std::vector<HubProposal>& winners);
  /// Phase 3: Alg. 3 boundary swap + exact home-based stat aggregation. The
  /// homes' codelength partials and every rank's `local_moves` ride the
  /// reply; returns their sum over ranks, added in rank order.
  HomeTotals swap_boundary_info(std::uint64_t local_moves);
  /// Phase 4: adopt the summed totals as the exact L, q and module count;
  /// returns the round's global move count. Local: no communication.
  std::uint64_t other_update(const HomeTotals& totals, std::uint64_t hub_moves);

  // ---- merging ------------------------------------------------------------
  /// Contract modules into the next-level graph, redistribute 1D, and record
  /// this level's map. Returns the new global vertex count.
  VertexId merge_level();

  /// Evaluate the best move for local vertex `li`; returns true if a strictly
  /// improving candidate exists.
  struct BestMove {
    ModuleId target = 0;
    double delta_l = 0;
    MoveOutcome outcome;
  };
  bool best_move_for(std::uint32_t li, BestMove& best);

  void apply_local_move(std::uint32_t li, const BestMove& mv);
  /// Queue owned vertex `li` for the next swap's boundary records, once.
  void mark_dirty(std::uint32_t li) {
    if (dirty_flag_[li]) return;
    dirty_flag_[li] = 1;
    dirty_owned_.push_back(li);
  }

  // ---- event clock of the async engine (DESIGN.md §12) --------------------
  std::uint64_t tick() { return ++clock_; }
  void stamp_assign(std::uint32_t li, std::uint64_t t) {
    if (cfg_.async) assign_stamp_[li] = t;
  }
  void stamp_stats(ModuleId m, std::uint64_t t) {
    if (cfg_.async) stat_stamp_[m] = t;
  }
  /// True when re-evaluating `li` provably reproduces its last (no-move)
  /// outcome: no neighbor assignment, candidate-module statistic, or own
  /// statistic changed since the last evaluation, and the recorded rejection
  /// margin survives the global q_total drift (the margin-bound argument of
  /// DESIGN.md §12 — this is what makes the skip *exact*, not heuristic).
  [[nodiscard]] bool can_prune(std::uint32_t li) const;
  /// Record the outcome of a completed evaluation of `li` for future
  /// can_prune decisions. `margin` is the smallest rejection slack observed
  /// across evaluated candidates (+inf when every candidate was skipped).
  /// The min-label guard needs no extra state here: its verdict is a pure
  /// function of the module pair, itself covered by the assignment stamps.
  void note_evaluated(std::uint32_t li, bool found, double margin) {
    if (!cfg_.async) return;
    last_eval_[li] = clock_;
    last_q_[li] = q_total_;
    last_margin_[li] = found ? 0.0 : margin;
  }

  // ---- async priority-worklist engine (DESIGN.md §12) ---------------------
  /// Run one level's move scheduling with the async engine: epochs of
  /// priority-ordered local drains + one packed delta exchange each, with a
  /// full reconciliation every kAsyncMaxLag epochs. Adds the level's global
  /// moves to `info` and sets its passes to the number of reconciliations;
  /// on return the usual post-level state (exact homed_ stats, exact L) is
  /// in place, as after a synchronous round loop. Returns the stop rule.
  LevelStop async_level(bool with_delegates, OuterIterationInfo& info);
  /// Push/raise `li` on the worklist with priority `prio` (lazy deletion:
  /// stale entries are discarded at pop time).
  /// Reconciliation: hub consensus (stage 1), whole-module swap, exact L;
  /// then a stamp-driven sweep reactivates every vertex can_prune cannot
  /// clear. Returns the epoch's global move count (allreduced).
  std::uint64_t async_reconcile(bool with_delegates,
                                std::uint64_t local_moves_since);

  /// ΔL evaluation routed through this rank's plogp memo.
  MoveOutcome eval_move(const MoveDelta& d) {
    return evaluate_move(d, memo_);
  }

  /// Settled: an owned vertex with no arcs and zero node and self flow (at
  /// level 0, exactly the degree-0 vertices; their coarse vertices stay
  /// settled). It never moves and nothing moves into its singleton module,
  /// whose every codelength term is an exact +0.0. So it takes no modules_
  /// entry, partial, home slot or reply; only merge_level and the alive
  /// count see it. Its home is its owner (m = v, so m mod p = v mod p).
  [[nodiscard]] bool settled(std::uint32_t li) const {
    const LocalVertex& lv = verts_[li];
    return lv.kind == Kind::kOwned && arc_off_[li] == arc_off_[li + 1] &&
           lv.node_flow == 0 && lv.self_flow == 0;
  }

  [[nodiscard]] int owner_of(VertexId v) const {
    return static_cast<int>(v % static_cast<VertexId>(comm_.size()));
  }
  /// A module's home is the owner of the vertex id it is named by.
  [[nodiscard]] int home_of(ModuleId m) const { return owner_of(m); }
  /// local_index's answer for a vertex this rank does not hold.
  static constexpr std::uint32_t kNotHere = ~std::uint32_t{0};
  /// Local index of global vertex `v`, or kNotHere. Ids at or above the
  /// level's vertex count (they arrive off the wire) are not held either.
  [[nodiscard]] std::uint32_t local_index(VertexId v) const {
    return v < local_of_.size() ? local_of_[v] : kNotHere;
  }

  perf::WorkCounters& wk(Phase ph) { return work_[static_cast<int>(ph)]; }

  /// RAII phase attribution: wall time plus the comm traffic that happened
  /// while alive is charged to one Phase, and (when tracing is armed) the
  /// phase appears as a span on this rank's trace track.
  class PhaseScope {
   public:
    PhaseScope(DistRank& rank, Phase ph)
        : rank_(rank),
          ph_(static_cast<int>(ph)),
          messages0_(rank.comm_.counters().total_messages()),
          bytes0_(rank.comm_.counters().total_bytes()),
          span_(rank.trace_buf_, kPhaseNames[static_cast<int>(ph)]) {}
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    ~PhaseScope() {
      rank_.work_[ph_].messages +=
          rank_.comm_.counters().total_messages() - messages0_;
      rank_.work_[ph_].bytes += rank_.comm_.counters().total_bytes() - bytes0_;
      rank_.phase_sec_[ph_] += timer_.seconds();
    }

   private:
    DistRank& rank_;
    int ph_;
    std::uint64_t messages0_;
    std::uint64_t bytes0_;
    util::Timer timer_;
    obs::SpanScope span_;
  };

  /// Sample the flight-recorder gauges of the module table (entries, slots).
  /// No-op unless metrics are on.
  void sample_table_metrics();

  comm::Comm& comm_;
  const DistInfomapConfig& cfg_;
  /// Flight recorder (nullable). trace_buf_/metrics_ are this rank's resolved
  /// handles — null whenever the respective subsystem is off, so every
  /// instrumentation site is one pointer test.
  obs::Recorder* recorder_ = nullptr;
  obs::TraceBuffer* trace_buf_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  VertexId n0_ = 0;        ///< level-0 global vertex count
  VertexId level_n_ = 0;   ///< current-level global vertex count
  double node_term_ = 0;   ///< Σ plogp(p_α), level 0 (global)

  std::vector<LocalVertex> verts_;
  /// Global -> local index, one slot per level vertex (kNotHere if not held).
  std::vector<std::uint32_t> local_of_;
  std::vector<std::uint32_t> arc_off_;  // size verts_+1
  std::vector<LocalArc> arcs_;
  std::vector<std::uint32_t> movable_;   // local indices, owned first
  std::vector<std::uint32_t> hubs_;      // local indices of delegates

  /// Module of every local vertex, by local index: the only store of it.
  std::vector<ModuleId> module_of_;

  /// Per-rank module table, indexed by module id (< level_n_): a candidate
  /// lookup is one index, not a hash probe. Each swap clears it and refills
  /// it from the homes' reply, which names every module a held vertex
  /// references; between swaps local moves and async deltas only add to it.
  /// So a missing candidate is a broken invariant, not a skip.
  util::SparseAccumulator<ModuleId, ModuleStats> modules_;

  /// Reusable move-search scratch, sized to level_n_ in
  /// init_singleton_modules: module ids at any level are that level's vertex
  /// ids, so a dense accumulator of that capacity covers all keys.
  struct NeighborFlow {
    double flow = 0;
    std::uint8_t boundary = 0;  ///< reached through a non-owned vertex
  };
  util::SparseAccumulator<ModuleId, NeighborFlow> nbflow_;
  /// Reusable per-module partial-stat scratch for swap_boundary_info.
  util::SparseAccumulator<ModuleId, ModuleInfo> partial_acc_;
  PlogpMemo memo_;

  // ---- event clock state (cfg_.async; empty otherwise) -------------------
  /// Per-rank monotone event clock, restarted at 1 per level. A stamp written
  /// before a vertex's first evaluation at a level is at most that
  /// evaluation's clock, so it never blocks a prune.
  std::uint64_t clock_ = 1;
  /// Per local vertex: clock at its last module-assignment change (own move,
  /// hub winner, ghost update).
  std::vector<std::uint64_t> assign_stamp_;
  /// Per module id (< level_n_ — module ids are current-level vertex ids):
  /// clock at the last statistics change visible in the local table.
  std::vector<std::uint64_t> stat_stamp_;
  /// Per local vertex: clock at its last completed evaluation (0 = never).
  std::vector<std::uint64_t> last_eval_;
  /// Rejection margin at the last no-move evaluation: min over evaluated
  /// candidates of (ΔL + kMoveEpsilon) — how far the best candidate was from
  /// acceptance.
  std::vector<double> last_margin_;
  /// q_total_ at the last evaluation (the margin is only valid against
  /// bounded q drift; see can_prune).
  std::vector<double> last_q_;
  /// Pre-swap module table kept for the refresh diff: the swap replaces the
  /// table wholesale, and only entries that actually changed bitwise may
  /// stamp (otherwise every reconciliation would reactivate every vertex).
  util::SparseAccumulator<ModuleId, ModuleStats> prev_modules_;

  // ---- async worklist state (cfg_.async) ----------------------------------
  /// Lazy-deletion priority queue over local vertex indices (extracted to
  /// util so the dcheck harness drives the same implementation).
  util::LazyPriorityWorklist worklist_;
  /// Per local *non-owned* vertex: owned local readers (reverse adjacency),
  /// built per level in async mode so an incoming delta for a ghost/hub can
  /// reactivate exactly the local vertices that read it.
  std::vector<std::vector<std::uint32_t>> ghost_readers_;

  double q_total_ = 0;
  double codelength_ = 0;
  double singleton_codelength_ = 0;
  std::uint64_t alive_modules_ = 0;  ///< global module count (post-sync)
  std::uint64_t num_settled_ = 0;    ///< settled vertices held here
  /// Rounds (or async epochs) run so far at this level, reset by
  /// init_singleton_modules; stamps the flight recorder's round samples and
  /// anomalies and keys the sync sub-round classes. One sync round is one
  /// global swap, so every rank holds the same value.
  int round_index_ = 0;
  int current_level_ = 0;  ///< outer level (0 = stage 1) for round samples

  /// Owned vertices that changed module since the last swap.
  std::vector<std::uint32_t> dirty_owned_;
  /// Per local vertex, sized per level: set once mark_dirty queued it. The
  /// sync swap clears the flags it ships; the async engine keeps them for the
  /// level (see swap_boundary_info).
  std::vector<std::uint8_t> dirty_flag_;
  /// Ranks reading local vertex li (owned vertices only), ascending:
  /// sub_ranks_[sub_off_[li] .. sub_off_[li + 1]).
  std::vector<std::uint32_t> sub_off_;
  std::vector<int> sub_ranks_;

  /// Exact stats of modules homed here (refreshed each swap) — the merge and
  /// codelength inputs. Home r owns exactly the ids m ≡ r (mod p), so the
  /// slot is m / p and the table holds O(level_n_/p) entries. Iteration is
  /// first-touch order — fixed by the senders' deterministic partial order —
  /// and every FP sum over homed modules runs in it; dead modules
  /// (num_members == 0) stay in the table and are skipped by the readers.
  util::SparseAccumulator<ModuleId, ModuleStats> homed_;
  [[nodiscard]] ModuleId home_slot(ModuleId m) const {
    return m / static_cast<ModuleId>(comm_.size());
  }
  [[nodiscard]] ModuleId homed_id(ModuleId slot) const {
    return slot * static_cast<ModuleId>(comm_.size()) +
           static_cast<ModuleId>(comm_.rank());
  }

  std::vector<VertexId> level_sizes_;  ///< see level_sizes()
  std::vector<VertexId> level_maps_;   ///< see level_maps()

  std::vector<OuterIterationInfo> trace_;
  std::vector<LevelStop> level_stops_;
  Stage2End stage2_ended_by_ = Stage2End::kMergedNothing;
  std::vector<double> round_mdl_;
  int stage1_rounds_ = 0;
  int stage2_levels_ = 0;
  double stage1_seconds_ = 0;
  double stage2_seconds_ = 0;
  perf::WorkCounters work_[kNumPhases];
  perf::WorkCounters stage1_work_snapshot_[kNumPhases];
  double phase_sec_[kNumPhases] = {0, 0, 0, 0};
};

}  // namespace dinfomap::core::detail
