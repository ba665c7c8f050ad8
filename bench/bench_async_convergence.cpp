// Move-scheduling engine comparison (DESIGN.md §12): the synchronous full
// sweep and the asynchronous priority-worklist engine on the standard
// small/medium test graphs. For each engine the table reports the move
// evaluations actually performed (ΔL candidate scans), the stage-1 rounds
// (epochs for the async engine, which reconciles every kAsyncMaxLag
// epochs), wall-clock, and the final MDL. The contract being measured: async
// stays within 1% of the synchronous MDL while spending its evaluations in
// priority order instead of sweep order.
#include <cstdio>

#include "bench_common.hpp"

namespace {

std::uint64_t total_delta_evals(const dinfomap::core::DistInfomapResult& r) {
  std::uint64_t n = 0;
  for (const auto& per_rank : r.work)
    for (const auto& wc : per_rank) n += wc.delta_evals;
  return n;
}

}  // namespace

int main() {
  using namespace dinfomap;
  bench::banner("Async convergence — engine comparison",
                "DESIGN.md S12 (beyond the paper: async priority worklist)");
  bench::CsvSink csv("async_convergence",
                     {"dataset", "ranks", "engine", "move_evals", "rounds", "wall_ms", "final_L", "vs_sync_pct", "wait_pct",
                      "critical_path_ms"});
  bench::JsonSink json("async");

  for (const char* name : {"amazon", "dblp", "ndweb", "youtube"}) {
    const auto data = bench::load(name);
    std::printf("\n--- %s (n=%u) ---\n", data.spec.paper_name.c_str(),
                data.csr.num_vertices());
    std::printf("%-3s %-16s %-12s %-7s %-10s %-10s %-9s\n", "p", "engine",
                "move_evals", "rounds", "wall (ms)", "final_L", "vs_sync");
    for (int p : {4, 8}) {
      double sync_l = 0;
      for (const char* engine : {"sync-full", "async"}) {
        const bool async = engine[0] == 'a';
        core::DistInfomapConfig cfg;
        cfg.num_ranks = p;
        cfg.obs.enabled = true;  // causal profile; results are unchanged
        cfg.async = async;
        const auto r = core::distributed_infomap(data.csr, cfg);
        if (!async) sync_l = r.codelength;
        const std::uint64_t evals = total_delta_evals(r);
        const double wall =
            1000.0 * (r.stage1_wall_seconds + r.stage2_wall_seconds);
        const double vs_sync =
            sync_l > 0 ? 100.0 * (r.codelength - sync_l) / sync_l : 0.0;
        // Wait share and critical path from the causal profile: the async
        // engine's pitch is precisely "less time blocked at barriers", so
        // this is the column that should drop from sync-full to async.
        double wait_pct = 0;
        double critical_ms = 0;
        if (r.report.has_profile) {
          double wait_us = 0, wall_us = 0;
          for (const auto& rr : r.report.profile.ranks) {
            wait_us += rr.wait_us;
            wall_us += rr.wall_us;
          }
          wait_pct = wall_us > 0 ? 100.0 * wait_us / wall_us : 0.0;
          critical_ms = r.report.profile.critical_path_us / 1000.0;
        }
        std::printf("%-3d %-16s %-12llu %-7d %-10.1f %-10.5f %+8.2f%% "
                    "wait %4.1f%%\n",
                    p, engine, static_cast<unsigned long long>(evals),
                    r.stage1_rounds, wall, r.codelength, vs_sync, wait_pct);
        csv.row(name, p, engine, evals, r.stage1_rounds, wall, r.codelength,
                vs_sync, wait_pct, critical_ms);
        json.begin_row()
            .field("dataset", name)
            .field("ranks", p)
            .field("engine", engine)
            .field("move_evals", evals)
            .field("rounds", r.stage1_rounds)
            .field("wall_ms", wall)
            .field("final_L", r.codelength)
            .field("vs_sync_pct", vs_sync)
            .field("wait_pct", wait_pct)
            .field("critical_path_ms", critical_ms);
      }
    }
  }
  std::printf(
      "\nexpected shape: async lands within +-1%% of sync-full, usually "
      "below it, with rounds counting epochs (kAsyncMaxLag of them per "
      "reconciliation).\n");
  return 0;
}
