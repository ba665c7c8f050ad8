#include "partition/metrics.hpp"

#include <algorithm>
#include <bit>

namespace dinfomap::partition {

std::vector<std::uint64_t> arcs_per_rank(const ArcPartition& part) {
  std::vector<std::uint64_t> counts(part.num_ranks, 0);
  for (const std::uint16_t r : part.arc_rank) ++counts[r];
  return counts;
}

std::vector<std::uint64_t> ghosts_per_rank(const ArcPartition& part) {
  // One scan of the arcs per 64 ranks: bit (r - base) of seen[v] records that
  // rank r holds an arc touching v while v is not local there.
  const GraphView& graph = part.graph;
  const VertexId n = graph.num_vertices();
  std::vector<std::uint64_t> counts(part.num_ranks, 0);
  std::vector<std::uint64_t> seen(n);
  for (int base = 0; base < part.num_ranks; base += 64) {
    std::fill(seen.begin(), seen.end(), 0);
    auto cursor = graph.cursor();
    for (VertexId u = 0; u < n; ++u) {
      EdgeIndex e = graph.first_arc(u);
      for (const auto& nb : graph.neighbors(u, cursor)) {
        const int r = part.arc_rank[e++];
        if (r < base || r - base >= 64) continue;
        const std::uint64_t bit = std::uint64_t{1} << (r - base);
        if (!part.local_on(u, r)) seen[u] |= bit;
        if (!part.local_on(nb.target, r)) seen[nb.target] |= bit;
      }
    }
    for (std::uint64_t bits : seen)
      for (; bits != 0; bits &= bits - 1) ++counts[base + std::countr_zero(bits)];
  }
  return counts;
}

bool validate_partition(const ArcPartition& part, const GraphView& graph) {
  const VertexId n = graph.num_vertices();
  const int p = part.num_ranks;
  if (p < 1 || p > kMaxRanks) return false;
  if (part.is_delegate.size() != n || part.owners.size() != n ||
      part.arc_rank.size() != graph.num_arcs())
    return false;
  // Low-degree sources sit with their owner (every strategy keeps this).
  for (VertexId u = 0; u < n; ++u) {
    if (part.owner(u) < 0 || part.owner(u) >= p) return false;
    const EdgeIndex first = graph.first_arc(u);
    for (EdgeIndex e = first; e < first + graph.degree(u); ++e)
      if (part.arc_rank[e] >= p ||
          (!part.delegate(u) && part.arc_rank[e] != part.owner(u)))
        return false;
  }
  return true;
}

}  // namespace dinfomap::partition
