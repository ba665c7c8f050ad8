// Sequential Louvain (Blondel et al. 2008) — the modularity-based comparator
// the paper's related-work section contrasts Infomap against.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace dinfomap::core {

struct LouvainConfig {
  double min_modularity_gain = 1e-9;
  int max_levels = 20;
  int max_inner_passes = 64;
  std::uint64_t seed = 42;
};

struct LouvainResult {
  graph::Partition assignment;  ///< level-0 vertex → community (dense ids)
  double modularity = 0;
  int levels = 0;
};

LouvainResult louvain(const graph::Csr& graph, const LouvainConfig& config = {});

}  // namespace dinfomap::core
