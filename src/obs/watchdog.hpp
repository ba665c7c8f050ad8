// Invariant watchdog: consumes the per-rank round stream the flight recorder
// captured and flags violations of the properties the algorithm is supposed
// to maintain — non-monotone global MDL, per-rank work skew beyond a
// threshold, unsynced-candidate skip rates, and async worklist thrashing or
// starvation.
// Findings are structured anomaly events: they land in the run report, in
// the trace (as instant events), and on the log as warnings so tests can
// capture them through util::set_log_sink.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dinfomap::obs {

/// One synchronous round as observed by one rank.
struct RoundSample {
  int level = 0;
  int round = 0;              ///< round index within the run (monotone per rank)
  double codelength = 0;      ///< exact global L after the round
  std::uint64_t moves = 0;    ///< global move count of the round
  std::uint64_t rank_work = 0;  ///< this rank's arcs scanned during the round
  /// Move candidates this rank skipped because the target module was not yet
  /// synced into its local table. A few per round are normal right after
  /// module churn; a persistently high rate means the swap protocol is
  /// starving the move search.
  std::uint64_t skipped_unsynced = 0;
  /// True when `codelength` is an exact post-allreduce global value (every
  /// synchronous round; async reconciliation epochs). Async drain epochs
  /// record the last reconciled value instead and mark it stale here, so the
  /// MDL-monotonicity rule must only compare exact samples.
  bool exact_mdl = true;
  /// Async engine: set on epoch samples (including reconciliation epochs) so
  /// the worklist rules below only judge worklist-driven rounds.
  bool is_epoch = false;
  // Async worklist traffic of the epoch (all zero for synchronous rounds).
  std::uint64_t worklist_pushed = 0;    ///< first-time activations enqueued
  std::uint64_t worklist_popped = 0;    ///< live entries drained & evaluated
  std::uint64_t worklist_requeued = 0;  ///< priority re-raises of queued vertices
  std::uint64_t worklist_stale = 0;     ///< lazy-deletion pops discarded
};

/// A detected invariant violation. `rank < 0` means "global" (derived from
/// the cross-rank view rather than one rank's stream).
struct Anomaly {
  int rank = -1;
  int level = 0;
  int round = 0;
  std::string kind;    ///< stable identifier, e.g. "mdl_regression"
  std::string detail;  ///< human-readable specifics
};

struct WatchdogOptions {
  /// L may grow by at most this much between consecutive rounds before the
  /// regression is flagged (conflicting synchronous moves can overshoot by a
  /// hair; the round loop itself tolerates core::kRoundTheta).
  double mdl_tolerance = 1e-7;
  /// Flag a round when max rank work exceeds `skew_threshold` × mean rank
  /// work (only once the round does meaningful work — see min_skew_work).
  double skew_threshold = 8.0;
  /// Rounds whose mean per-rank work is below this many arcs are too small
  /// for a skew verdict and are skipped.
  std::uint64_t min_skew_work = 1024;
  /// Flag a rank's round when more than this fraction of its scanned arcs
  /// were unsynced-module skips (the rank is mostly unable to evaluate its
  /// candidates — the swap protocol is starving it).
  double skip_rate_threshold = 0.5;
  /// Rounds with fewer skips than this are below the noise floor for a
  /// skip-rate verdict.
  std::uint64_t min_skip_samples = 256;
  /// Async worklist thrashing: flag an epoch where a rank's
  /// `worklist_requeued / worklist_popped` exceeds this ratio — the same
  /// vertices keep re-entering the queue faster than they are drained, i.e.
  /// the staleness budget is letting ranks chase each other's tails.
  double worklist_thrash_ratio = 4.0;
  /// Epochs draining fewer live entries than this are below the noise floor
  /// for a thrash verdict.
  std::uint64_t min_worklist_popped = 256;
  /// Async starvation: flag an epoch where a rank's worklist was completely
  /// idle (nothing popped, nothing pushed) while the epoch still moved at
  /// least this many vertices globally — the priority schedule has starved
  /// that rank out of useful work.
  std::uint64_t starved_min_global_moves = 64;

  // ---- profile-digest rules (analyze_profile, DESIGN.md §13) -------------
  /// Flag a rank that spent more than this fraction of its wall time blocked
  /// in receives — computation is no longer the bottleneck for that rank.
  double wait_dominated_threshold = 0.6;
  /// Runs whose per-rank wall time is below this are too short for a
  /// wait-dominance verdict (startup collectives dominate tiny runs).
  double min_profile_wall_us = 10'000.0;
  /// Flag a phase where one rank, by arriving last at the phase's
  /// collectives, caused more than this share of the phase's total
  /// cross-rank wait — a persistent straggler rather than diffuse jitter.
  double straggler_skew_share = 0.6;
  /// Phases accumulating less cross-rank collective wait than this are below
  /// the noise floor for a straggler verdict.
  double min_straggler_wait_us = 5'000.0;

  // ---- decode-cache rule (out-of-core blocks backend) --------------------
  /// Flag the run when the block cache's miss ratio exceeds this while it is
  /// also evicting — the decoded working set cycles through a too-small
  /// budget, and every scan pays the decode bill again (cache thrash).
  double cache_miss_ratio_threshold = 0.5;
  /// Runs with fewer block faults (hits + misses) than this are below the
  /// noise floor for a thrash verdict.
  std::uint64_t min_cache_faults = 1024;
};

/// Analyze per-rank round streams (`streams[r]` is rank r's samples, all the
/// same length for a correct synchronous run). Returns anomalies found;
/// callers append them to the recorder's inline anomalies.
[[nodiscard]] std::vector<Anomaly> analyze_rounds(
    const std::vector<std::vector<RoundSample>>& streams,
    const WatchdogOptions& options);

/// Decode-cache counters of one out-of-core run (a plain mirror of
/// graph::blockgraph::BlockGraphStats — obs does not link the graph layer).
struct BlockCacheSample {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// Judge the decode cache of a blocks-backend run against the cache_thrash
/// rule. Returns at most one anomaly (kind "cache_thrash", rank -1).
[[nodiscard]] std::vector<Anomaly> analyze_block_cache(
    const BlockCacheSample& sample, const WatchdogOptions& options);

}  // namespace dinfomap::obs
