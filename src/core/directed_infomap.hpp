// Directed Infomap extension.
//
// The paper (§2.2) notes the method "can be easily extended to directed
// graphs": vertex visit rates then come from PageRank instead of degrees,
// and link flows are the stationary flows p_u·w_uv/w_out(u) (teleportation
// unrecorded — it contributes to visit rates but not to module exits, the
// convention of Infomap's default two-level directed codelength).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dicsr.hpp"
#include "graph/types.hpp"

namespace dinfomap::core {

struct PageRankConfig {
  double damping = 0.85;
};

/// Stationary visit probabilities of the teleporting random walk. Dangling
/// vertices spread their mass uniformly. Sums to 1. Iterates until the L1
/// change of an iteration drops below 1e-12, at most 200 times.
std::vector<double> pagerank(const graph::DiCsr& graph,
                             const PageRankConfig& config = {});

/// Stop rules: the constants of core/mapequation.hpp, as for sequential.
struct DirectedInfomapConfig {
  std::uint64_t seed = 42;
  PageRankConfig pagerank;
};

struct DirectedInfomapResult {
  graph::Partition assignment;  ///< vertex → module (dense ids)
  double codelength = 0;
  double singleton_codelength = 0;
  int levels = 0;

  [[nodiscard]] graph::VertexId num_modules() const {
    graph::VertexId k = 0;
    for (auto m : assignment) k = std::max(k, m + 1);
    return k;
  }
};

DirectedInfomapResult directed_infomap(const graph::DiCsr& graph,
                                       const DirectedInfomapConfig& config = {});

/// Exact directed two-level codelength of an arbitrary assignment (the
/// reference the optimizer is tested against).
double directed_codelength(const graph::DiCsr& graph,
                           const std::vector<double>& visit_rate,
                           const graph::Partition& module_of,
                           double damping = 0.85);

}  // namespace dinfomap::core
