#include "quality/metrics.hpp"

#include <cmath>
#include <unordered_map>

#include "util/check.hpp"

namespace dinfomap::quality {

namespace {
double entropy(const std::vector<std::uint64_t>& sizes, double n) {
  double h = 0;
  for (std::uint64_t s : sizes) {
    if (s == 0) continue;
    const double p = static_cast<double>(s) / n;
    h -= p * std::log2(p);
  }
  return h;
}

double choose2(double x) { return x * (x - 1.0) / 2.0; }
}  // namespace

PairCounts pair_counts(const Contingency& table) {
  double cells2 = 0;
  for (const auto& [key, count] : table.cells())
    cells2 += choose2(static_cast<double>(count));
  double rows2 = 0;
  for (auto s : table.row_sizes()) rows2 += choose2(static_cast<double>(s));
  double cols2 = 0;
  for (auto s : table.col_sizes()) cols2 += choose2(static_cast<double>(s));
  PairCounts pc;
  pc.a11 = cells2;
  pc.a10 = rows2 - cells2;
  pc.a01 = cols2 - cells2;
  return pc;
}

double nmi(const Partition& a, const Partition& b) {
  const Contingency table(a, b);
  const double n = static_cast<double>(table.n());
  const double ha = entropy(table.row_sizes(), n);
  const double hb = entropy(table.col_sizes(), n);
  if (ha == 0 && hb == 0) return 1.0;  // both trivial and identical
  double mi = 0;
  for (const auto& [key, count] : table.cells()) {
    const auto row = static_cast<std::uint32_t>(key >> 32);
    const auto col = static_cast<std::uint32_t>(key & 0xffffffffu);
    const double pij = static_cast<double>(count) / n;
    const double pi = static_cast<double>(table.row_sizes()[row]) / n;
    const double pj = static_cast<double>(table.col_sizes()[col]) / n;
    mi += pij * std::log2(pij / (pi * pj));
  }
  return 2.0 * mi / (ha + hb);
}

double f_measure(const Partition& a, const Partition& b) {
  const auto pc = pair_counts(Contingency(a, b));
  const double denom_p = pc.a11 + pc.a10;
  const double denom_r = pc.a11 + pc.a01;
  if (denom_p == 0 && denom_r == 0) return 1.0;  // no co-clustered pairs anywhere
  if (denom_p == 0 || denom_r == 0) return 0.0;
  const double precision = pc.a11 / denom_p;
  const double recall = pc.a11 / denom_r;
  if (precision + recall == 0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

double jaccard_index(const Partition& a, const Partition& b) {
  const auto pc = pair_counts(Contingency(a, b));
  const double denom = pc.a11 + pc.a10 + pc.a01;
  if (denom == 0) return 1.0;  // both partitions are all-singletons
  return pc.a11 / denom;
}

double modularity(const graph::GraphView& graph, const Partition& partition) {
  DINFOMAP_REQUIRE_MSG(partition.size() == graph.num_vertices(),
                       "modularity: partition size mismatch");
  // Community totals: internal weight and total incident weight.
  std::unordered_map<VertexId, double> internal, total;
  auto cursor = graph.cursor();
  for (graph::VertexId u = 0; u < graph.num_vertices(); ++u) {
    const VertexId cu = partition[u];
    total[cu] += graph.weighted_degree(u) + 2.0 * graph.self_weight(u);
    internal[cu] += 2.0 * graph.self_weight(u);
    for (const auto& nb : graph.neighbors(u, cursor)) {
      if (partition[nb.target] == cu) internal[cu] += nb.weight;
    }
  }
  const double two_w = 2.0 * graph.total_weight();
  if (two_w == 0) return 0.0;
  double q = 0;
  for (const auto& [c, tot] : total) {
    const auto in_it = internal.find(c);
    const double in_c = in_it != internal.end() ? in_it->second : 0.0;
    q += in_c / two_w - (tot / two_w) * (tot / two_w);
  }
  return q;
}

}  // namespace dinfomap::quality
