// Distributed Infomap (Algorithm 2 of the paper).
//
// Stage 1 — parallel clustering *with delegates* on the delegate-partitioned
// input graph: local greedy moves, a broadcast that applies each hub's
// globally-best move everywhere, and whole-module boundary information
// swapping (Algorithm 3). Stage 2 — the merged graph is redistributed with
// plain 1D partitioning and clustered the same way without delegates, level
// by level, until the MDL stops improving.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/counters.hpp"
#include "comm/fault.hpp"
#include "core/mapequation.hpp"
#include "core/seq_infomap.hpp"
#include "graph/csr.hpp"
#include "graph/graph_view.hpp"
#include "graph/types.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "partition/arc_partition.hpp"
#include "perf/work_counters.hpp"

namespace dinfomap::comm {
class Transport;
}

namespace dinfomap::core {

/// The paper's four profiled components (Fig. 8).
enum class Phase : int {
  kFindBestModule = 0,
  kBroadcastDelegates = 1,
  kSwapBoundaryInfo = 2,
  kOther = 3,
};
inline constexpr int kNumPhases = 4;
inline constexpr std::array<const char*, kNumPhases> kPhaseNames = {
    "FindBestModule", "BroadcastDelegates", "SwapBoundaryInfo", "Other"};

/// Staleness budget of the async engine: a reconciliation exchange (hub
/// consensus + whole-module swap + exact L) runs every kAsyncMaxLag epochs,
/// bounding how far rank-local statistics may diverge.
inline constexpr int kAsyncMaxLag = 4;

/// Stop rules of the level and round loops, and the sync round's sub-round
/// count. The run report echoes them under the config keys theta,
/// max_levels, max_rounds, round_theta, min_rounds, move_epsilon and
/// sub_rounds. θ (kTheta: stage 2 stops once a level improves L by less) and
/// kMoveEpsilon are shared with the sequential engines (core/mapequation.hpp).
inline constexpr int kMaxLevels = 16;  ///< stage-2 merge levels
inline constexpr int kMaxRounds = 64;  ///< synchronous rounds per level
/// A level's rounds also stop once a full round improves L by less than
/// this (after kMinRounds) — synchronous rounds can otherwise trade
/// vanishing gains forever without reaching exactly zero moves.
inline constexpr double kRoundTheta = 1e-7;
inline constexpr int kMinRounds = 4;
/// Sync sub-rounds: a vertex with a neighbour on another rank (a "split"
/// vertex, hubs included) is evaluated in a sync round only when a seeded
/// hash of (seed, level, round, vertex) falls in that round's class, one of
/// kSubRounds; every other vertex is evaluated in every round. At p = 1 no
/// vertex is split, and the async engine does not use the classes.
inline constexpr int kSubRounds = 2;

/// Why a level's round (or async epoch) loop ended; the run report's level
/// rows carry it as `stop`.
enum class LevelStop : std::uint8_t {
  kNoMoves,    ///< a round (or reconciliation) moved nothing
  kOvershoot,  ///< a round raised L by more than kRoundTheta
  kSmallGain,  ///< a round improved L by less than kRoundTheta
  kRoundCap,   ///< the kMaxRounds cap
};
inline constexpr std::array<const char*, 4> kLevelStopNames = {
    "no_moves", "overshoot", "small_gain", "max_rounds"};
/// Why stage 2 ended; the run report's stage-2 summary carries it as
/// `ended_by`.
enum class Stage2End : std::uint8_t {
  kMergedNothing,  ///< a level left every vertex in its own module
  kSmallGain,      ///< a level improved L by less than kTheta
  kLevelCap,       ///< the kMaxLevels cap
};
inline constexpr std::array<const char*, 3> kStage2EndNames = {
    "merged_nothing", "small_gain", "max_levels"};

struct DistInfomapConfig {
  int num_ranks = 4;
  /// Must be 1: ranks are the distributed core's only parallel axis
  /// (DESIGN.md §10). The field stays only so callers that set it to 1 keep
  /// compiling; distributed_infomap and distributed_infomap_rank reject any
  /// other value.
  int threads_per_rank = 1;
  /// Hub threshold d_high; 0 → the paper's default d_high = num_ranks.
  graph::EdgeIndex degree_threshold = 0;
  std::uint64_t seed = 42;
  /// Minimum-label anti-bouncing strategy for boundary moves (§3.4);
  /// switchable for the A2 ablation.
  bool min_label = true;
  /// Extension beyond the paper: decide each hub's move from its *exact*
  /// global flow-to-module map, reduced at the hub's owner, instead of the
  /// paper's per-rank local proposals + global argmin. Costs one extra
  /// alltoallv of (hub, module, flow) records per round; improves quality on
  /// hub-dominated graphs (see bench_ablation_hubmoves).
  bool exact_hub_moves = false;
  /// Asynchronous priority-driven engine: per-rank deterministic worklist
  /// (max-heap on (|ΔL| gain estimate, vertex id)) drained in epochs that
  /// exchange module deltas through one packed collective instead of the
  /// synchronous round's four collectives. Bounded staleness: local module
  /// statistics drift between reconciliations (at most kAsyncMaxLag epochs).
  /// Deterministic for a fixed (graph, seed, num_ranks); converges to an MDL
  /// within the quality band asserted by tests (below 1.01 × a pinned
  /// synchronous MDL, DESIGN.md §12). Never uses the sync sub-rounds.
  bool async = false;
  /// Seeded transport fault plan (drop / duplicate / reorder / corrupt /
  /// stall — see comm/fault.hpp). Recovery must be transparent: the final
  /// partition and MDL stay bit-identical to the fault-free run (asserted by
  /// tests/test_comm_faults.cpp). Default: no faults.
  comm::FaultPlan faults;
  /// Comm-runtime watchdog timeout (ms): a rank making no transport progress
  /// for this long aborts the job with a CommFault naming it instead of
  /// hanging. 0 disables; use alongside `faults.stall_rank`.
  unsigned comm_watchdog_ms = 0;
  /// Flight recorder (src/obs): per-rank tracing, metrics, and the invariant
  /// watchdog. Off by default; purely observational — enabling it must not
  /// change any result bit (asserted by the obs determinism regression).
  obs::ObsOptions obs;
};

struct DistInfomapResult {
  /// Level-0 vertex → final module (dense ids).
  graph::Partition assignment;
  double codelength = 0;
  double singleton_codelength = 0;

  /// Per-level convergence rows (same shape as the sequential trace) — the
  /// distributed curves of Figs. 4 and 5.
  std::vector<OuterIterationInfo> trace;
  /// Exact global MDL after every stage-1 round (finer-grained than the
  /// per-level trace; the distributed series of Fig. 4).
  std::vector<double> stage1_round_codelengths;

  /// Why each level of `trace` stopped, one entry per row.
  std::vector<LevelStop> level_stops;
  int stage1_rounds = 0;
  int stage2_levels = 0;
  Stage2End stage2_ended_by = Stage2End::kMergedNothing;
  double stage1_wall_seconds = 0;
  double stage2_wall_seconds = 0;

  /// work[phase][rank]: exact counters feeding the cost model (Figs. 8–10).
  std::array<std::vector<perf::WorkCounters>, kNumPhases> work;
  /// Per-rank totals split by stage (stage_work[0] = with delegates,
  /// stage_work[1] = merged-graph levels) — the two series of Fig. 9.
  std::array<std::vector<perf::WorkCounters>, 2> stage_work;
  /// Wall seconds per phase per rank (thread time; indicative only on one
  /// machine — the modeled time uses `work`).
  std::array<std::vector<double>, kNumPhases> phase_seconds;
  std::vector<comm::CommCounters> comm_counters;  ///< per rank

  /// Structured run report (always filled; its metrics/anomaly sections are
  /// only populated when `config.obs.enabled`). Benches embed this instead of
  /// re-accumulating the arrays above by hand.
  obs::RunReport report;

  [[nodiscard]] graph::VertexId num_modules() const {
    graph::VertexId k = 0;
    for (auto m : assignment) k = std::max(k, m + 1);
    return k;
  }
};

/// Run the full distributed pipeline on `graph` with `config.num_ranks`
/// ranks. Deterministic for a fixed (graph, config) pair. The input streams
/// from either the resident CSR (a `graph::Csr` converts implicitly) or the
/// out-of-core block file, with bit-identical partitions and codelengths on
/// both backends: the view-based builders assign every arc the same rank,
/// and each rank builds its level-0 graph by reading its arcs' rows from
/// `graph`, which both backends present in the same order with the same
/// bits.
DistInfomapResult distributed_infomap(const graph::GraphView& graph,
                                      const DistInfomapConfig& config);

/// Same, but over an already-built stage-1 partition (lets benchmarks reuse
/// one partitioning across runs and ablate the partitioner). `part` must fit
/// `graph` exactly — one owner and delegate flag per vertex, one rank per
/// arc (partition::validate_partition) — or this throws ContractViolation.
DistInfomapResult distributed_infomap(const graph::GraphView& graph,
                                      const partition::ArcPartition& part,
                                      const DistInfomapConfig& config);

/// One rank's share of a multi-process distributed run: the SPMD entry the
/// socket-transport worker role calls with its own endpoint. Every rank of
/// the job must call this with the same (graph, config) — the delegate
/// partition is rebuilt deterministically on each rank, exactly as the
/// single-process overloads build it — and `config.num_ranks` must equal
/// `transport.size()`.
///
/// Per-rank results (level maps, work counters, comm counters, injected-fault
/// tallies) are gathered to rank 0 over the transport itself; rank 0
/// composes the level maps — each level's vertex → coarse vertex, the last
/// level's vertex → final module — into the level-0 assignment and
/// returns the fully assembled DistInfomapResult, other ranks return
/// a skeleton carrying only their locally visible fields. Bit-identical to
/// the in-process overloads for a fixed (seed, ranks): same partition,
/// codelengths, round traces, and comm counters.
///
/// Observability: the recorder only sees this rank's track, so per-process
/// trace files are written by the caller (one per worker) and merged by the
/// launcher (obs/trace_merge.hpp); the cross-rank profile digest is not
/// built here.
DistInfomapResult distributed_infomap_rank(const graph::GraphView& graph,
                                           const DistInfomapConfig& config,
                                           comm::Transport& transport);

/// The d_high actually used when `config.degree_threshold == 0`: the paper's
/// d_high = p, floored at several times the mean degree so scaled-down runs
/// do not delegate the whole graph (see DESIGN.md).
graph::EdgeIndex resolve_degree_threshold(const graph::GraphView& graph,
                                          const DistInfomapConfig& config);

}  // namespace dinfomap::core
