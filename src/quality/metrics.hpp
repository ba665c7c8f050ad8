// Clustering-agreement metrics (Table 2) and modularity.
//
// Conventions follow Xie et al. 2013 (the survey the paper cites):
//  - NMI with arithmetic normalization: 2·I(X;Y) / (H(X)+H(Y)); defined as 1
//    when both partitions are the same single cluster.
//  - F-measure and Jaccard are pair-counting: over all vertex pairs, let
//    a11 = together in both, a10 = together in A only, a01 = together in B
//    only. Precision = a11/(a11+a10), recall = a11/(a11+a01),
//    F = 2PR/(P+R), JI = a11/(a11+a10+a01).
#pragma once

#include "graph/csr.hpp"
#include "graph/graph_view.hpp"
#include "quality/contingency.hpp"

namespace dinfomap::quality {

double nmi(const Partition& a, const Partition& b);
double f_measure(const Partition& a, const Partition& b);
double jaccard_index(const Partition& a, const Partition& b);

struct PairCounts {
  double a11 = 0;  ///< pairs co-clustered in both
  double a10 = 0;  ///< co-clustered in A only
  double a01 = 0;  ///< co-clustered in B only
};
PairCounts pair_counts(const Contingency& table);

/// Newman–Girvan modularity of `partition` on `graph` (self-loops included
/// in community-internal weight). Both backends run the identical
/// accumulation sequence, so the result is bit-identical across them.
double modularity(const graph::GraphView& graph, const Partition& partition);

}  // namespace dinfomap::quality
