// Sequential Louvain (Blondel et al. 2008) — the modularity-based comparator
// the paper's related-work section contrasts Infomap against.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace dinfomap::core {

struct LouvainConfig {
  std::uint64_t seed = 42;  ///< per-pass vertex-order shuffle
};

struct LouvainResult {
  graph::Partition assignment;  ///< level-0 vertex → community (dense ids)
  double modularity = 0;
  int levels = 0;
};

LouvainResult louvain(const graph::Csr& graph, const LouvainConfig& config = {});

}  // namespace dinfomap::core
