// Supplementary: the three parallel-Infomap generations side by side — the
// shared-memory RelaxMap comparator (Bae 2013), the GossipMap-style
// label-flow comparator (Bae 2015), and the paper's distributed Infomap —
// quality and modeled time at matched parallelism. Reproduces the paper's
// related-work narrative quantitatively. RelaxMap's lock-free stale reads
// make each of its runs one sample, so its column is the median of several
// runs with their range.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/labelflow.hpp"
#include "core/relaxmap.hpp"
#include "core/seq_infomap.hpp"
#include "quality/metrics.hpp"

int main() {
  using namespace dinfomap;
  bench::banner("Supplementary — parallel Infomap generations (p = 8)",
                "related-work comparison of §2.1 (RelaxMap / GossipMap / ours)");
  const int p = 8;
  constexpr int kRelaxMapRuns = 5;

  std::printf("%-12s | %-10s | %-34s | %-22s | %-22s\n", "Dataset", "seq L",
              "RelaxMap  L [min, max] / NMI(seq)", "label-flow L / NMI",
              "dist-Infomap L / NMI");
  std::printf("%s\n", std::string(115, '-').c_str());

  for (const char* name : {"amazon", "dblp", "youtube"}) {
    const auto data = bench::load(name);
    const auto seq = core::sequential_infomap(data.csr);

    core::RelaxMapConfig rm_cfg;
    rm_cfg.num_threads = p;
    std::vector<core::RelaxMapResult> rm_runs;
    for (int i = 0; i < kRelaxMapRuns; ++i)
      rm_runs.push_back(core::relaxmap(data.csr, rm_cfg));
    std::ranges::sort(rm_runs, {}, &core::RelaxMapResult::codelength);
    const auto& rm = rm_runs[kRelaxMapRuns / 2];  // the median run

    const auto lf = core::distributed_labelflow(data.csr, p);

    core::DistInfomapConfig di_cfg;
    di_cfg.num_ranks = p;
    const auto di = core::distributed_infomap(data.csr, di_cfg);

    std::printf(
        "%-12s | %-10.4f | %8.4f [%.4f, %.4f] / %-6.2f | %8.4f / %-11.2f | "
        "%8.4f / %-11.2f\n",
        data.spec.paper_name.c_str(), seq.codelength, rm.codelength,
        rm_runs.front().codelength, rm_runs.back().codelength,
        quality::nmi(rm.assignment, seq.assignment), lf.codelength,
        quality::nmi(lf.assignment, seq.assignment), di.codelength,
        quality::nmi(di.assignment, seq.assignment));
  }
  std::printf(
      "\nexpected: RelaxMap holds sequential quality but is shared-memory "
      "only; label-flow scales but loses quality; distributed Infomap keeps "
      "quality at distributed scale (the paper's thesis).\n");
  return 0;
}
