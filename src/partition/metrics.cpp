#include "partition/metrics.hpp"

#include <algorithm>
#include <unordered_set>

namespace dinfomap::partition {

std::vector<std::uint64_t> arcs_per_rank(const ArcPartition& part) {
  std::vector<std::uint64_t> counts(part.num_ranks);
  for (int r = 0; r < part.num_ranks; ++r) counts[r] = part.rank_arcs[r].size();
  return counts;
}

std::vector<std::uint64_t> ghosts_per_rank(const ArcPartition& part) {
  std::vector<std::uint64_t> counts(part.num_ranks, 0);
  for (int r = 0; r < part.num_ranks; ++r) {
    std::unordered_set<VertexId> ghosts;
    for (const Arc& a : part.rank_arcs[r]) {
      if (!part.local_on(a.source, r)) ghosts.insert(a.source);
      if (!part.local_on(a.target, r)) ghosts.insert(a.target);
    }
    counts[r] = ghosts.size();
  }
  return counts;
}

bool validate_partition(const ArcPartition& part, const GraphView& graph) {
  // Exact multiset check in O(E): bucket the assigned arcs by source with a
  // counting sort, then compare each bucket with that vertex's row. Only
  // rows that are not already in (target, weight) order get sorted.
  const VertexId n = graph.num_vertices();
  if (part.is_delegate.size() < n || part.owners.size() < n) return false;
  std::vector<EdgeIndex> off(static_cast<std::size_t>(n) + 1, 0);
  for (int r = 0; r < part.num_ranks; ++r) {
    for (const Arc& a : part.rank_arcs[r]) {
      if (a.source >= n) return false;
      // Low-degree sources must sit with their owner (both strategies keep
      // this).
      if (!part.delegate(a.source) && part.owner(a.source) != r) return false;
      ++off[a.source + 1];
    }
  }
  for (VertexId u = 0; u < n; ++u) {
    if (off[u + 1] != graph.degree(u)) return false;
    off[u + 1] += off[u];
  }

  std::vector<graph::Neighbor> bucket(off[n]);
  std::vector<EdgeIndex> cursor(off.begin(), off.end() - 1);
  for (const auto& arcs : part.rank_arcs)
    for (const Arc& a : arcs) bucket[cursor[a.source]++] = {a.target, a.weight};

  const auto less = [](const graph::Neighbor& a, const graph::Neighbor& b) {
    return a.target != b.target ? a.target < b.target : a.weight < b.weight;
  };
  const auto same = [](const graph::Neighbor& a, const graph::Neighbor& b) {
    return a.target == b.target && a.weight == b.weight;
  };
  std::vector<graph::Neighbor> row_sorted;
  auto gc = graph.cursor();
  for (VertexId u = 0; u < n; ++u) {
    const auto first = bucket.begin() + static_cast<std::ptrdiff_t>(off[u]);
    const auto last = bucket.begin() + static_cast<std::ptrdiff_t>(off[u + 1]);
    if (!std::is_sorted(first, last, less)) std::sort(first, last, less);
    auto row = graph.neighbors(u, gc);
    if (!std::is_sorted(row.begin(), row.end(), less)) {
      row_sorted.assign(row.begin(), row.end());
      std::sort(row_sorted.begin(), row_sorted.end(), less);
      row = row_sorted;
    }
    if (!std::equal(first, last, row.begin(), row.end(), same)) return false;
  }
  return true;
}

}  // namespace dinfomap::partition
