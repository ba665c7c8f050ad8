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

/// Structural audit used by tests: every CSR arc appears on exactly one rank,
/// and (for delegate partitions) every low-degree source sits with its owner.
bool validate_partition(const ArcPartition& part, const GraphView& graph);

}  // namespace dinfomap::partition
