// Ablation A2: the minimum-label anti-bouncing strategy (§3.4). Without it,
// synchronous rounds can oscillate; the sweep reports rounds-to-converge and
// final MDL with the strategy on and off.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace dinfomap;
  bench::banner("Ablation A2 — minimum-label anti-bouncing on/off (p=8)",
                "heuristic of §3.4 (vertex bouncing problem)");
  const int p = 8;

  std::printf("%-14s %-10s | %-14s %-10s | %-14s %-10s\n", "Dataset", "",
              "min-label ON", "", "min-label OFF", "");
  std::printf("%-14s %-10s | %-14s %-10s | %-14s %-10s\n", "", "",
              "s1 rounds", "final L", "s1 rounds", "final L");
  std::printf("%s\n", std::string(78, '-').c_str());

  for (const char* name : {"amazon", "dblp", "youtube", "uk2005"}) {
    const auto data = bench::load(name);
    core::DistInfomapConfig on;
    on.num_ranks = p;
    auto off = on;
    off.min_label = false;
    const auto r_on = core::distributed_infomap(data.csr, on);
    const auto r_off = core::distributed_infomap(data.csr, off);
    std::printf("%-14s %-10s | %-14d %-10.4f | %-14d %-10.4f\n",
                data.spec.paper_name.c_str(), "", r_on.stage1_rounds,
                r_on.codelength, r_off.stage1_rounds, r_off.codelength);
  }
  std::printf(
      "\nOFF hitting the per-level round cap (%d) indicates non-convergent "
      "bouncing.\n",
      core::kMaxRounds);
  return 0;
}
