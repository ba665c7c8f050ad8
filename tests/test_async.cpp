// Tests for the asynchronous priority-worklist engine (DESIGN.md §12), whose
// contract is bounded divergence (MDL within 1% of the synchronous
// reference) plus exact determinism for a fixed (graph, seed, ranks).
#include <gtest/gtest.h>

#include "core/dist_infomap.hpp"
#include "core/flowgraph.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;

namespace {

dc::DistInfomapConfig config_for(int p) {
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  return cfg;
}

}  // namespace

// --- async priority-worklist engine -----------------------------------------

TEST(Async, QualityWithinOnePercentOfSync) {
  const auto gg = gen::lfr_lite({}, 59);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  for (int p : {4, 5}) {
    const auto sync = dc::distributed_infomap(g, config_for(p));
    auto cfg = config_for(p);
    cfg.async = true;
    const auto as = dc::distributed_infomap(g, cfg);
    EXPECT_EQ(as.assignment.size(), g.num_vertices()) << "p=" << p;
    // Reported L must still be the exact score of the gathered assignment.
    EXPECT_NEAR(as.codelength, dc::codelength_of_partition(fg, as.assignment),
                1e-9)
        << "p=" << p;
    EXPECT_LT(as.codelength, as.singleton_codelength) << "p=" << p;
    EXPECT_LT(as.codelength, sync.codelength * 1.01) << "p=" << p;
  }
}

TEST(Async, DeterministicForFixedSeedRanksLag) {
  const auto gg = gen::lfr_lite({}, 61);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  auto cfg = config_for(4);
  cfg.async = true;
  const auto a = dc::distributed_infomap(g, cfg);
  const auto b = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.codelength, b.codelength);
}

TEST(Async, StarvedWorklistTerminates) {
  // Disconnected cliques: after the first drain every worklist is empty and
  // stays empty (no cross-rank module traffic re-activates anything). The
  // epoch loop must detect the globally quiet state and exit instead of
  // spinning to the round cap.
  dg::EdgeList edges;
  for (dg::VertexId c = 0; c < 8; ++c) {
    const dg::VertexId base = c * 5;
    for (dg::VertexId i = 0; i < 5; ++i)
      for (dg::VertexId j = i + 1; j < 5; ++j)
        edges.push_back({base + i, base + j, 1.0});
  }
  const auto g = dg::build_csr(edges, 40);
  auto cfg = config_for(4);
  cfg.async = true;
  const auto r = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(r.num_modules(), 8u);
  EXPECT_LT(r.codelength, r.singleton_codelength);
  // Termination came from quiescence, far below the epoch budget.
  EXPECT_LT(r.stage1_rounds, dc::kMaxRounds * dc::kAsyncMaxLag);
}

TEST(Async, HubGraphStaysInBand) {
  // Delegate consensus only happens at reconciliation in the async engine;
  // hubs must still land in sensible modules.
  const auto gg = gen::barabasi_albert(900, 2, 71);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  const auto sync = dc::distributed_infomap(g, config_for(4));
  auto cfg = config_for(4);
  cfg.async = true;
  const auto as = dc::distributed_infomap(g, cfg);
  EXPECT_NEAR(as.codelength, dc::codelength_of_partition(fg, as.assignment),
              1e-9);
  EXPECT_LT(as.codelength, sync.codelength * 1.01);
}
