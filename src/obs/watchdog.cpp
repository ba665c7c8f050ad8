#include "obs/watchdog.hpp"

#include <algorithm>
#include <sstream>

namespace dinfomap::obs {

std::vector<Anomaly> analyze_rounds(
    const std::vector<std::vector<RoundSample>>& streams,
    const WatchdogOptions& options) {
  std::vector<Anomaly> out;
  if (streams.empty() || streams.front().empty()) return out;
  const std::size_t rounds = streams.front().size();

  // The synchronous protocol requires every rank to observe every round; a
  // ragged stream is itself an anomaly (and we only analyze the common
  // prefix below).
  std::size_t common = rounds;
  for (std::size_t r = 1; r < streams.size(); ++r) {
    if (streams[r].size() != rounds) {
      std::ostringstream os;
      os << "rank " << r << " recorded " << streams[r].size()
         << " rounds, rank 0 recorded " << rounds;
      out.push_back({static_cast<int>(r), 0, 0, "ragged_round_stream", os.str()});
      common = std::min(common, streams[r].size());
    }
  }

  // Non-monotone global MDL: L after a round should not exceed L after the
  // previous round beyond tolerance. Rank 0's stream carries the global
  // value (identical on all ranks by the allreduce). Only exact samples
  // enter the comparison — async drain epochs record the last reconciled L
  // and flag it stale, and judging a stale estimate against an exact value
  // would manufacture regressions.
  const auto& s0 = streams.front();
  bool have_prev = false;
  double prev_l = 0;
  for (std::size_t i = 0; i < s0.size(); ++i) {
    if (!s0[i].exact_mdl) continue;
    if (have_prev) {
      const double regression = s0[i].codelength - prev_l;
      if (regression > options.mdl_tolerance) {
        std::ostringstream os;
        os.precision(12);
        os << "L rose " << prev_l << " -> " << s0[i].codelength << " (+"
           << regression << ")";
        out.push_back(
            {-1, s0[i].level, s0[i].round, "mdl_regression", os.str()});
      }
    }
    have_prev = true;
    prev_l = s0[i].codelength;
  }

  // Per-round work skew across ranks.
  for (std::size_t i = 0; i < common; ++i) {
    std::uint64_t total = 0;
    std::uint64_t max_work = 0;
    int max_rank = 0;
    for (std::size_t r = 0; r < streams.size(); ++r) {
      const std::uint64_t w = streams[r][i].rank_work;
      total += w;
      if (w > max_work) {
        max_work = w;
        max_rank = static_cast<int>(r);
      }
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(streams.size());
    if (mean < static_cast<double>(options.min_skew_work)) continue;
    if (static_cast<double>(max_work) > options.skew_threshold * mean) {
      std::ostringstream os;
      os << "rank " << max_rank << " scanned " << max_work
         << " arcs vs mean " << static_cast<std::uint64_t>(mean) << " ("
         << static_cast<double>(max_work) / mean << "x)";
      out.push_back(
          {max_rank, s0[i].level, s0[i].round, "work_skew", os.str()});
    }
  }

  // Async worklist thrashing: requeues dominating pops means vertices are
  // reactivated faster than the drain retires them — the staleness budget is
  // too loose for the graph (ranks keep invalidating each other's work).
  for (std::size_t i = 0; i < common; ++i) {
    for (std::size_t r = 0; r < streams.size(); ++r) {
      const RoundSample& s = streams[r][i];
      if (!s.is_epoch || s.worklist_popped < options.min_worklist_popped)
        continue;
      const double ratio = static_cast<double>(s.worklist_requeued) /
                           static_cast<double>(s.worklist_popped);
      if (ratio > options.worklist_thrash_ratio) {
        std::ostringstream os;
        os << "rank " << r << " requeued " << s.worklist_requeued
           << " vertices against " << s.worklist_popped << " pops ("
           << ratio << "x)";
        out.push_back({static_cast<int>(r), s.level, s.round,
                       "worklist_thrash", os.str()});
      }
    }
  }

  // Async starvation: a rank with a dead worklist while the epoch still
  // moves many vertices globally is cut out of the priority schedule —
  // usually a partitioning or activation-propagation problem.
  for (std::size_t i = 0; i < common; ++i) {
    for (std::size_t r = 0; r < streams.size(); ++r) {
      const RoundSample& s = streams[r][i];
      if (!s.is_epoch) continue;
      if (s.worklist_popped != 0 || s.worklist_pushed != 0) continue;
      if (s.moves < options.starved_min_global_moves) continue;
      std::ostringstream os;
      os << "rank " << r << " worklist idle while the epoch moved " << s.moves
         << " vertices globally";
      out.push_back({static_cast<int>(r), s.level, s.round,
                     "starved_worklist", os.str()});
    }
  }
  return out;
}

std::vector<Anomaly> analyze_block_cache(const BlockCacheSample& sample,
                                         const WatchdogOptions& options) {
  std::vector<Anomaly> out;
  const std::uint64_t faults = sample.hits + sample.misses;
  if (faults < options.min_cache_faults) return out;
  if (sample.evictions == 0) return out;  // cold misses only: budget suffices
  const double miss_ratio =
      static_cast<double>(sample.misses) / static_cast<double>(faults);
  if (miss_ratio <= options.cache_miss_ratio_threshold) return out;
  std::ostringstream os;
  os << "decode cache miss ratio " << miss_ratio << " over " << faults
     << " block faults with " << sample.evictions
     << " evictions — working set cycles through the cache budget; raise "
        "--block-cache-mb or repartition for block locality";
  out.push_back({-1, 0, 0, "cache_thrash", os.str()});
  return out;
}

}  // namespace dinfomap::obs
