#include <gtest/gtest.h>

#include "core/flowgraph.hpp"
#include "core/seq_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "quality/metrics.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;

TEST(SeqInfomap, RecoversRingOfCliques) {
  const auto gg = gen::ring_of_cliques(8, 5, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::sequential_infomap(g);
  EXPECT_EQ(result.num_modules(), 8u);
  EXPECT_DOUBLE_EQ(dinfomap::quality::nmi(result.assignment, *gg.ground_truth), 1.0);
}

TEST(SeqInfomap, ImprovesOnSingletons) {
  const auto gg = gen::lfr_lite({}, 11);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::sequential_infomap(g);
  EXPECT_LT(result.codelength, result.singleton_codelength);
}

TEST(SeqInfomap, ReportedCodelengthMatchesAssignment) {
  const auto gg = gen::sbm(300, 5, 0.2, 0.01, 13);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::sequential_infomap(g);
  const auto fg = dc::make_flow_graph(g);
  EXPECT_NEAR(result.codelength,
              dc::codelength_of_partition(fg, result.assignment), 1e-9);
}

TEST(SeqInfomap, HighNmiOnPlantedSbm) {
  const auto gg = gen::sbm(400, 8, 0.25, 0.005, 21);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::sequential_infomap(g);
  EXPECT_GT(dinfomap::quality::nmi(result.assignment, *gg.ground_truth), 0.9);
}

TEST(SeqInfomap, DeterministicForFixedSeed) {
  const auto gg = gen::lfr_lite({}, 31);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  dc::InfomapConfig cfg;
  cfg.seed = 7;
  const auto a = dc::sequential_infomap(g, cfg);
  const auto b = dc::sequential_infomap(g, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.codelength, b.codelength);
}

TEST(SeqInfomap, TraceIsMonotoneNonIncreasing) {
  const auto gg = gen::lfr_lite({}, 17);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::sequential_infomap(g);
  ASSERT_FALSE(result.trace.empty());
  double prev = result.singleton_codelength + 1e-9;
  for (const auto& row : result.trace) {
    EXPECT_LE(row.codelength_after, row.codelength_before + 1e-9);
    EXPECT_LE(row.codelength_after, prev + 1e-9);
    prev = row.codelength_after;
  }
}

TEST(SeqInfomap, LevelHandoffIsConsistent) {
  // L after moves at level k == L at singleton init of level k+1.
  const auto gg = gen::sbm(300, 6, 0.2, 0.01, 5);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::sequential_infomap(g);
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_NEAR(result.trace[i - 1].codelength_after,
                result.trace[i].codelength_before, 1e-9);
  }
}

TEST(SeqInfomap, MergeRateDecreasesVertices) {
  const auto gg = gen::lfr_lite({}, 41);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::sequential_infomap(g);
  for (const auto& row : result.trace)
    EXPECT_LE(row.num_modules, row.level_vertices);
  EXPECT_LT(result.trace.front().num_modules,
            result.trace.front().level_vertices / 2);  // strong first merge
}

TEST(SeqInfomap, SingleEdgeGraph) {
  const auto g = dg::build_csr({{0, 1}});
  const auto result = dc::sequential_infomap(g);
  // Two vertices joined by one edge collapse into a single module.
  EXPECT_EQ(result.num_modules(), 1u);
}

TEST(SeqInfomap, StarGraphCollapses) {
  dg::EdgeList edges;
  for (dg::VertexId v = 1; v <= 6; ++v) edges.push_back({0, v});
  const auto result = dc::sequential_infomap(dg::build_csr(edges));
  EXPECT_EQ(result.num_modules(), 1u);
}

TEST(SeqInfomap, DisconnectedComponentsStaySeparate) {
  // Two disjoint triangles.
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  const auto result = dc::sequential_infomap(g);
  EXPECT_EQ(result.num_modules(), 2u);
  EXPECT_EQ(result.assignment[0], result.assignment[1]);
  EXPECT_NE(result.assignment[0], result.assignment[3]);
}

TEST(SeqInfomap, IsolatedVerticesKeepSingletons) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {0, 2}}, 5);  // 3,4 isolated
  const auto result = dc::sequential_infomap(g);
  EXPECT_EQ(result.assignment.size(), 5u);
  EXPECT_NE(result.assignment[3], result.assignment[0]);
  EXPECT_NE(result.assignment[3], result.assignment[4]);
}

class SeqInfomapSeeds : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SeqInfomapSeeds,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST_P(SeqInfomapSeeds, CodelengthNeverAboveSingletonBound) {
  const auto gg = gen::lfr_lite({}, GetParam());
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  dc::InfomapConfig cfg;
  cfg.seed = GetParam() * 13;
  const auto result = dc::sequential_infomap(g, cfg);
  EXPECT_LE(result.codelength, result.singleton_codelength + 1e-9);
  // And the final assignment scores exactly the reported L.
  const auto fg = dc::make_flow_graph(g);
  EXPECT_NEAR(result.codelength,
              dc::codelength_of_partition(fg, result.assignment), 1e-9);
}
