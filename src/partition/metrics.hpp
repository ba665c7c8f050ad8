// Balance metrics over an ArcPartition — the quantities plotted in the
// paper's Figs. 6 (workload = per-rank arc count) and 7 (communication =
// per-rank ghost-vertex count).
#pragma once

#include <cstdint>
#include <vector>

#include "partition/arc_partition.hpp"

namespace dinfomap::partition {

/// Arcs held by each rank.
std::vector<std::uint64_t> arcs_per_rank(const ArcPartition& part);

/// Ghost vertices per rank: distinct arc endpoints on the rank that are
/// neither owned there nor delegates.
std::vector<std::uint64_t> ghosts_per_rank(const ArcPartition& part);

/// Structural audit in O(|V| + |E|), without allocating or reading any
/// adjacency: the per-vertex arrays match `graph`'s vertex count, `arc_rank`
/// its arc count, every rank is below num_ranks, and every low-degree
/// source's arcs sit with its owner.
bool validate_partition(const ArcPartition& part, const GraphView& graph);

}  // namespace dinfomap::partition
