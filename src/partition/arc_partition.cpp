#include "partition/arc_partition.hpp"

#include <algorithm>
#include <deque>

#include "util/check.hpp"
#include "util/flat_map.hpp"

namespace dinfomap::partition {

namespace {
void require_ranks(const GraphView& graph, int num_ranks) {
  DINFOMAP_REQUIRE_MSG(num_ranks >= 1, "need at least one rank");
  DINFOMAP_REQUIRE_MSG(graph.num_vertices() > 0, "empty graph");
}

void fill_round_robin(ArcPartition& part, VertexId n) {
  part.owners.resize(n);
  for (VertexId v = 0; v < n; ++v)
    part.owners[v] = static_cast<int>(v % static_cast<VertexId>(part.num_ranks));
}

/// Assign every out-arc to its source's owner (the 1D family).
void assign_by_source_owner(ArcPartition& part, const GraphView& graph) {
  part.rank_arcs.assign(part.num_ranks, {});
  auto cursor = graph.cursor();
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    const int r = part.owner(u);
    for (const auto& nb : graph.neighbors(u, cursor))
      part.rank_arcs[r].push_back({u, nb.target, nb.weight});
  }
}

/// Per-rank state for the decode-aware rebalance: arc load plus how many
/// distinct edge blocks the rank's arcs touch (the decode-cost driver).
struct RankCost {
  EdgeIndex load = 0;
  util::FlatMap<std::uint32_t, std::uint32_t> block_arcs;

  void add(std::uint32_t block) {
    ++load;
    ++block_arcs[block];
  }
  void remove(std::uint32_t block) {
    --load;
    auto it = block_arcs.find(block);
    if (it != block_arcs.end() && it->second > 0) --it->second;
  }
  [[nodiscard]] std::uint64_t distinct_blocks() {
    std::uint64_t d = 0;
    // dlint:allow(unordered-iter): counting non-zero entries — a pure
    // reduction over integers, insensitive to iteration order.
    for (const auto& slot : block_arcs)
      if (slot.second > 0) ++d;
    return d;
  }
};
}  // namespace

ArcPartition make_oned(const GraphView& graph, int num_ranks) {
  require_ranks(graph, num_ranks);
  ArcPartition part;
  part.strategy = Strategy::kOneD;
  part.num_ranks = num_ranks;
  part.is_delegate.assign(graph.num_vertices(), 0);
  fill_round_robin(part, graph.num_vertices());
  assign_by_source_owner(part, graph);
  return part;
}

ArcPartition make_oned_balanced(const GraphView& graph, int num_ranks) {
  require_ranks(graph, num_ranks);
  ArcPartition part;
  part.strategy = Strategy::kOneDBalanced;
  part.num_ranks = num_ranks;
  part.is_delegate.assign(graph.num_vertices(), 0);
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
  assign_by_source_owner(part, graph);
  return part;
}

ArcPartition make_hash(const GraphView& graph, int num_ranks,
                       std::uint64_t seed) {
  require_ranks(graph, num_ranks);
  ArcPartition part;
  part.strategy = Strategy::kHash;
  part.num_ranks = num_ranks;
  part.is_delegate.assign(graph.num_vertices(), 0);
  part.owners.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    // SplitMix64 finalizer as the hash.
    std::uint64_t z = (static_cast<std::uint64_t>(v) + seed) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    part.owners[v] = static_cast<int>((z ^ (z >> 31)) %
                                      static_cast<std::uint64_t>(num_ranks));
  }
  assign_by_source_owner(part, graph);
  return part;
}

ArcPartition make_delegate(const GraphView& graph, int num_ranks,
                           EdgeIndex degree_threshold,
                           const DelegateDecodeCost& decode_cost) {
  require_ranks(graph, num_ranks);
  if (degree_threshold == 0)
    degree_threshold = static_cast<EdgeIndex>(num_ranks);  // paper: d_high = p
  const bool cost_aware = decode_cost.enabled();
  DINFOMAP_REQUIRE_MSG(!cost_aware || graph.out_of_core(),
                       "decode-aware rebalance needs the blocks backend "
                       "(it reasons about edge-block topology)");

  ArcPartition part;
  part.strategy = Strategy::kDelegate;
  part.num_ranks = num_ranks;
  part.degree_threshold = degree_threshold;
  part.is_delegate.assign(graph.num_vertices(), 0);
  fill_round_robin(part, graph.num_vertices());
  part.rank_arcs.resize(num_ranks);

  const VertexId n = graph.num_vertices();
  for (VertexId v = 0; v < n; ++v)
    if (graph.degree(v) > degree_threshold) part.is_delegate[v] = 1;

  // Hub→hub arcs are free to go anywhere; collect them as the rebalance pool.
  std::deque<Arc> pool;
  {
    auto cursor = graph.cursor();
    for (VertexId u = 0; u < n; ++u) {
      const bool u_hub = part.delegate(u);
      for (const auto& nb : graph.neighbors(u, cursor)) {
        const Arc arc{u, nb.target, nb.weight};
        if (!u_hub) {
          part.rank_arcs[part.owner(u)].push_back(arc);  // E_low: by source owner
        } else if (!part.delegate(nb.target)) {
          part.rank_arcs[part.owner(nb.target)].push_back(arc);  // E_high: by target
        } else {
          pool.push_back(arc);  // both endpoints duplicated everywhere
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

  std::vector<EdgeIndex> load(num_ranks);
  for (int r = 0; r < num_ranks; ++r) load[r] = part.rank_arcs[r].size();

  auto least_loaded = [&] {
    int best = 0;
    for (int r = 1; r < num_ranks; ++r)
      if (load[r] < load[best]) best = r;
    return best;
  };
  while (!pool.empty()) {
    const int r = least_loaded();
    part.rank_arcs[r].push_back(pool.front());
    pool.pop_front();
    ++load[r];
  }

  if (!cost_aware) {
    for (int r = 0; r < num_ranks; ++r) {
      if (load[r] <= target) continue;
      auto& arcs = part.rank_arcs[r];
      // Partition so movable (hub-sourced) arcs sit at the back.
      const std::size_t first_movable = static_cast<std::size_t>(
          std::stable_partition(arcs.begin(), arcs.end(),
                                [&](const Arc& a) { return !part.delegate(a.source); }) -
          arcs.begin());
      while (load[r] > target && arcs.size() > first_movable) {
        const int dest = least_loaded();
        if (load[dest] >= target) break;  // nowhere left to shed load
        part.rank_arcs[dest].push_back(arcs.back());
        arcs.pop_back();
        --load[r];
        ++load[dest];
      }
    }
    return part;
  }

  // Decode-aware shedding: the cost of a rank is its arc load plus the
  // decode bill for the distinct edge blocks those arcs pull through the
  // cache. Overloaded ranks shed their *rarest-block* movable arcs first
  // (dropping a block's last arc removes a whole decode), toward the rank
  // with the lowest modeled cost. Fully deterministic: sort keys are
  // (block frequency, block id, arc position).
  const auto& bg = *graph.blocks();
  const double miss_cost = decode_cost.arcs_per_block *
                           (1.0 - decode_cost.expected_hit_ratio) *
                           decode_cost.sec_per_arc_decode;
  std::vector<RankCost> rc(num_ranks);
  for (int r = 0; r < num_ranks; ++r)
    for (const Arc& a : part.rank_arcs[r]) rc[r].add(bg.block_of(a.source));

  auto cost_of = [&](int r) {
    return static_cast<double>(rc[r].load) * decode_cost.sec_per_arc +
           static_cast<double>(rc[r].distinct_blocks()) * miss_cost;
  };
  double total_cost = 0;
  for (int r = 0; r < num_ranks; ++r) total_cost += cost_of(r);
  const double target_cost = total_cost / num_ranks;

  auto least_cost = [&] {
    int best = 0;
    double best_c = cost_of(0);
    for (int r = 1; r < num_ranks; ++r) {
      const double c = cost_of(r);
      if (c < best_c) {
        best = r;
        best_c = c;
      }
    }
    return best;
  };

  for (int r = 0; r < num_ranks; ++r) {
    if (cost_of(r) <= target_cost) continue;
    auto& arcs = part.rank_arcs[r];
    const std::size_t first_movable = static_cast<std::size_t>(
        std::stable_partition(arcs.begin(), arcs.end(),
                              [&](const Arc& a) { return !part.delegate(a.source); }) -
        arcs.begin());
    // Rarest blocks last, so shedding pops them first.
    auto block_freq = [&](const Arc& a) {
      auto it = rc[r].block_arcs.find(bg.block_of(a.source));
      return it != rc[r].block_arcs.end() ? it->second : 0u;
    };
    std::stable_sort(
        arcs.begin() + static_cast<std::ptrdiff_t>(first_movable), arcs.end(),
        [&](const Arc& a, const Arc& b) {
          const std::uint32_t fa = block_freq(a);
          const std::uint32_t fb = block_freq(b);
          if (fa != fb) return fa > fb;
          return bg.block_of(a.source) < bg.block_of(b.source);
        });
    while (cost_of(r) > target_cost && arcs.size() > first_movable) {
      const int dest = least_cost();
      if (dest == r || cost_of(dest) >= target_cost) break;
      const Arc moved = arcs.back();
      arcs.pop_back();
      part.rank_arcs[dest].push_back(moved);
      const std::uint32_t blk = bg.block_of(moved.source);
      rc[r].remove(blk);
      rc[dest].add(blk);
    }
  }
  return part;
}

}  // namespace dinfomap::partition
