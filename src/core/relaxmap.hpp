// RelaxMap-style shared-memory parallel Infomap (Bae et al. 2013) — the
// other prior-art comparator in the paper's related work. Threads optimize
// the map equation concurrently over a shared module table with relaxed
// consistency: move decisions may read slightly stale statistics (hence
// "relax"), applications are serialized per-module, and exactness is
// restored by rescoring between levels.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace dinfomap::core {

/// Stop rules: the constants of core/mapequation.hpp, as for sequential.
/// There is no seed: stripes visit vertices in id order.
struct RelaxMapConfig {
  int num_threads = 4;
};

struct RelaxMapResult {
  graph::Partition assignment;  ///< level-0 vertex → module (dense ids)
  double codelength = 0;        ///< exact rescoring of `assignment`
  double singleton_codelength = 0;
  int levels = 0;
  double wall_seconds = 0;

  [[nodiscard]] graph::VertexId num_modules() const {
    graph::VertexId k = 0;
    for (auto m : assignment) k = std::max(k, m + 1);
    return k;
  }
};

RelaxMapResult relaxmap(const graph::Csr& graph, const RelaxMapConfig& config = {});

}  // namespace dinfomap::core
