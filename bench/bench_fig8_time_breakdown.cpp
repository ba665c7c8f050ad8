// Figure 8: per-iteration time breakdown of stage 1 into the paper's four
// components (Find Best Module, Broadcast Delegates, Swap Boundary Info,
// Other) as the rank count grows.
//
// Ranks here are threads on one machine, so the breakdown is reported in
// *modeled* time (α-β model over exact per-rank work/traffic counters — see
// DESIGN.md S9); measured wall seconds are printed alongside for reference.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace dinfomap;
  bench::banner(
      "Figure 8 — stage-1 time breakdown per iteration vs rank count",
      "Zeng & Yu, ICPP'18, Fig. 8");
  const perf::CostModel model;
  bench::CsvSink csv("fig8_time_breakdown",
                     {"dataset", "ranks", "rounds", "find_best_ms", "bcast_ms",
                      "swap_ms", "other_ms", "wait_pct", "straggler_phase"});
  bench::JsonSink json("fig8_time_breakdown");

  for (const char* name : {"uk2005", "webbase2001", "friendster", "uk2007"}) {
    const auto data = bench::load(name);
    std::printf("\n--- %s ---\n", data.spec.paper_name.c_str());
    std::printf("%-5s %-9s | %-12s %-12s %-12s %-12s (modeled ms/iter)\n", "p",
                "rounds", "FindBest", "BcastDeleg", "SwapBoundary", "Other");
    for (int p : {4, 8, 16}) {
      core::DistInfomapConfig cfg;
      cfg.num_ranks = p;
      cfg.obs.enabled = true;  // flight recorder fills the run report
      const auto result = core::distributed_infomap(data.csr, cfg);
      const obs::RunReport& rep = result.report;
      const double iters = std::max(1, rep.stage1_rounds);
      // Phase counters include stage 2; scale by the stage-1 share of total
      // work so the per-iteration stage-1 number stays honest.
      const double stage1_share =
          bench::modeled_stage_seconds(rep, 0, model) /
          std::max(1e-12, bench::modeled_stage_seconds(rep, 0, model) +
                              bench::modeled_stage_seconds(rep, 1, model));
      std::printf("%-5d %-9d | ", p, rep.stage1_rounds);
      double per_phase_ms[core::kNumPhases] = {};
      for (int ph = 0; ph < core::kNumPhases; ++ph) {
        const double phase_ms =
            1000.0 * bench::modeled_phase_seconds(rep, ph, model);
        per_phase_ms[ph] = phase_ms * stage1_share / iters;
        std::printf("%-12.3f ", per_phase_ms[ph]);
      }
      std::printf("\n");
      // Measured-side view from the causal profile digest: how much of the
      // wall the mean rank spent blocked, and where collective wait piles up.
      double wait_pct = 0;
      std::string straggler_phase = "-";
      if (rep.has_profile) {
        double wait = 0, wall = 0;
        for (const auto& rr : rep.profile.ranks) {
          wait += rr.wait_us;
          wall += rr.wall_us;
        }
        wait_pct = wall > 0 ? 100.0 * wait / wall : 0.0;
        if (!rep.profile.phases.empty())
          straggler_phase = rep.profile.phases.front().name;  // max wait_us
        std::printf("      profile: wait %.1f%%, critical path %.1f ms, top "
                    "wait phase %s\n",
                    wait_pct, rep.profile.critical_path_us / 1000.0,
                    straggler_phase.c_str());
      }
      csv.row(name, p, rep.stage1_rounds, per_phase_ms[0], per_phase_ms[1],
              per_phase_ms[2], per_phase_ms[3], wait_pct, straggler_phase);
      json.begin_row()
          .field("dataset", name)
          .field("ranks", p)
          .field("rounds", rep.stage1_rounds)
          .field("find_best_ms", per_phase_ms[0])
          .field("bcast_ms", per_phase_ms[1])
          .field("swap_ms", per_phase_ms[2])
          .field("other_ms", per_phase_ms[3])
          .field("wait_pct", wait_pct)
          .field("critical_path_ms", rep.profile.critical_path_us / 1000.0)
          .field("straggler_phase", straggler_phase)
          .report_field("run_report", rep);
    }
  }
  std::printf(
      "\nexpected shape: FindBest/BcastDelegates fall with p; SwapBoundary "
      "stays roughly flat (ghost volume is p-invariant) and carries the "
      "codelength reduction; Other is local arithmetic only, about 0.\n");
  return 0;
}
