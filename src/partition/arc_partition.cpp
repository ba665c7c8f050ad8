#include "partition/arc_partition.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dinfomap::partition {

namespace {
void require_ranks(const GraphView& graph, int num_ranks) {
  DINFOMAP_REQUIRE_MSG(num_ranks >= 1, "need at least one rank");
  DINFOMAP_REQUIRE_MSG(num_ranks <= kMaxRanks,
                       "at most " << kMaxRanks << " ranks (got " << num_ranks
                                  << ")");
  DINFOMAP_REQUIRE_MSG(graph.num_vertices() > 0, "empty graph");
}

/// A partition over `graph` with no delegates and every arc on rank 0.
ArcPartition new_partition(const GraphView& graph, Strategy strategy,
                           int num_ranks) {
  require_ranks(graph, num_ranks);
  return {.graph = graph,
          .strategy = strategy,
          .num_ranks = num_ranks,
          .degree_threshold = 0,
          .is_delegate = std::vector<std::uint8_t>(graph.num_vertices(), 0),
          .owners = {},
          .arc_rank = std::vector<std::uint16_t>(graph.num_arcs(), 0)};
}

void fill_round_robin(ArcPartition& part, VertexId n) {
  part.owners.resize(n);
  for (VertexId v = 0; v < n; ++v)
    part.owners[v] = static_cast<int>(v % static_cast<VertexId>(part.num_ranks));
}

/// Put u's whole row on rank r.
void assign_row(ArcPartition& part, VertexId u, int r) {
  const auto first = part.arc_rank.begin() +
                     static_cast<std::ptrdiff_t>(part.graph.first_arc(u));
  std::fill_n(first, part.graph.degree(u), static_cast<std::uint16_t>(r));
}

/// Assign every out-arc to its source's owner (the 1D family).
void assign_by_source_owner(ArcPartition& part) {
  for (VertexId u = 0; u < part.graph.num_vertices(); ++u)
    assign_row(part, u, part.owner(u));
}
}  // namespace

ArcPartition make_oned(const GraphView& graph, int num_ranks) {
  ArcPartition part = new_partition(graph, Strategy::kOneD, num_ranks);
  fill_round_robin(part, graph.num_vertices());
  assign_by_source_owner(part);
  return part;
}

ArcPartition make_oned_balanced(const GraphView& graph, int num_ranks) {
  ArcPartition part = new_partition(graph, Strategy::kOneDBalanced, num_ranks);
  part.owners.assign(graph.num_vertices(), num_ranks - 1);

  // Greedy contiguous split: advance the cut whenever the running degree sum
  // reaches the next 1/p quantile of total arcs.
  const double per_rank =
      static_cast<double>(graph.num_arcs()) / static_cast<double>(num_ranks);
  double acc = 0;
  int rank = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    part.owners[v] = rank;
    acc += static_cast<double>(graph.degree(v));
    if (acc >= per_rank * (rank + 1) && rank + 1 < num_ranks) ++rank;
  }
  assign_by_source_owner(part);
  return part;
}

ArcPartition make_hash(const GraphView& graph, int num_ranks,
                       std::uint64_t seed) {
  ArcPartition part = new_partition(graph, Strategy::kHash, num_ranks);
  part.owners.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    // SplitMix64 finalizer as the hash.
    std::uint64_t z = (static_cast<std::uint64_t>(v) + seed) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    part.owners[v] = static_cast<int>((z ^ (z >> 31)) %
                                      static_cast<std::uint64_t>(num_ranks));
  }
  assign_by_source_owner(part);
  return part;
}

ArcPartition make_delegate(const GraphView& graph, int num_ranks,
                           EdgeIndex degree_threshold) {
  ArcPartition part = new_partition(graph, Strategy::kDelegate, num_ranks);
  if (degree_threshold == 0)
    degree_threshold = static_cast<EdgeIndex>(num_ranks);  // paper: d_high = p
  part.degree_threshold = degree_threshold;
  fill_round_robin(part, graph.num_vertices());

  const VertexId n = graph.num_vertices();
  for (VertexId v = 0; v < n; ++v)
    if (graph.degree(v) > degree_threshold) part.is_delegate[v] = 1;

  // E_low goes by source owner, E_high by target owner. Hub→hub arcs are free
  // to go anywhere; collect them, in arc order, as the rebalance pool. Only
  // hub rows are read.
  std::vector<EdgeIndex> load(num_ranks, 0);
  std::vector<EdgeIndex> pool;
  {
    auto cursor = graph.cursor();
    for (VertexId u = 0; u < n; ++u) {
      if (!part.delegate(u)) {
        assign_row(part, u, part.owner(u));
        load[part.owner(u)] += graph.degree(u);
        continue;
      }
      EdgeIndex e = graph.first_arc(u);
      for (const auto& nb : graph.neighbors(u, cursor)) {
        if (part.delegate(nb.target)) {
          pool.push_back(e++);
        } else {
          const int r = part.owner(nb.target);
          part.arc_rank[e++] = static_cast<std::uint16_t>(r);
          ++load[r];
        }
      }
    }
  }

  // Rebalance: first place pooled arcs onto the least-loaded ranks, then move
  // hub-sourced arcs off overloaded ranks (their sources are duplicated, so
  // relocation is free in ownership terms — §3.3 step 4).
  const EdgeIndex total_arcs = graph.num_arcs();
  const EdgeIndex target =
      (total_arcs + static_cast<EdgeIndex>(num_ranks) - 1) /
      static_cast<EdgeIndex>(num_ranks);

  auto least_loaded = [&] {
    int best = 0;
    for (int r = 1; r < num_ranks; ++r)
      if (load[r] < load[best]) best = r;
    return best;
  };
  for (const EdgeIndex e : pool) {
    const int r = least_loaded();
    part.arc_rank[e] = static_cast<std::uint16_t>(r);
    ++load[r];
  }

  // An overloaded rank sheds its hub-sourced arcs last-placed first: the
  // pooled ones from the back of the pool, then the target-assigned ones
  // from the back of the arc order. Only ranks above `target` shed, and
  // they never receive, so each rank's arcs are still all its own here.
  std::vector<EdgeIndex> movable;
  for (int r = 0; r < num_ranks; ++r) {
    if (load[r] <= target) continue;
    movable.clear();
    auto pooled = pool.begin();
    for (VertexId u = 0; u < n; ++u) {
      if (!part.delegate(u)) continue;
      const EdgeIndex first = graph.first_arc(u);
      for (EdgeIndex e = first; e < first + graph.degree(u); ++e) {
        if (pooled != pool.end() && *pooled == e) {
          ++pooled;
        } else if (part.arc_rank[e] == r) {
          movable.push_back(e);
        }
      }
    }
    for (const EdgeIndex e : pool)
      if (part.arc_rank[e] == r) movable.push_back(e);
    while (load[r] > target && !movable.empty()) {
      const int dest = least_loaded();
      if (load[dest] >= target) break;  // nowhere left to shed load
      part.arc_rank[movable.back()] = static_cast<std::uint16_t>(dest);
      movable.pop_back();
      --load[r];
      ++load[dest];
    }
  }
  return part;
}

}  // namespace dinfomap::partition
