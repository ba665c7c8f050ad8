#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "util/check.hpp"

namespace dg = dinfomap::graph;

namespace {
/// Triangle 0-1-2 with a pendant path 2-3-4.
dg::Csr triangle_with_tail() {
  return dg::build_csr({{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
}
}  // namespace

TEST(CoreNumbers, TriangleWithTail) {
  const auto core = dg::core_numbers(triangle_with_tail());
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
  EXPECT_EQ(core[4], 1u);
}

TEST(CoreNumbers, CliqueIsKMinusOneCore) {
  const auto gg = dg::gen::ring_of_cliques(4, 6, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto core = dg::core_numbers(g);
  for (auto c : core) EXPECT_EQ(c, 5u);  // every vertex sits in a 5-core
}

TEST(CoreNumbers, StarIsOneCore) {
  dg::EdgeList edges;
  for (dg::VertexId v = 1; v <= 6; ++v) edges.push_back({0, v});
  const auto core = dg::core_numbers(dg::build_csr(edges));
  for (auto c : core) EXPECT_EQ(c, 1u);
}

TEST(CoreNumbers, IsolatedVertexIsZeroCore) {
  const auto core = dg::core_numbers(dg::build_csr({{0, 1}}, 3));
  EXPECT_EQ(core[2], 0u);
}

TEST(Clustering, TriangleIsFullyClustered) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {0, 2}});
  const auto cc = dg::local_clustering(g);
  for (auto c : cc) EXPECT_DOUBLE_EQ(c, 1.0);
  EXPECT_DOUBLE_EQ(dg::global_clustering(g), 1.0);
}

TEST(Clustering, PathHasNoTriangles) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {2, 3}});
  EXPECT_DOUBLE_EQ(dg::global_clustering(g), 0.0);
  for (auto c : dg::local_clustering(g)) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Clustering, TriangleWithTailMixed) {
  const auto cc = dg::local_clustering(triangle_with_tail());
  EXPECT_DOUBLE_EQ(cc[0], 1.0);
  EXPECT_DOUBLE_EQ(cc[2], 1.0 / 3.0);  // one closed of three pairs at vertex 2
  EXPECT_DOUBLE_EQ(cc[3], 0.0);
}

TEST(Clustering, WattsStrogatzLatticeIsClustered) {
  const auto lattice = dg::gen::watts_strogatz(300, 6, 0.0, 1);
  const auto g = dg::build_csr(lattice.edges, lattice.num_vertices);
  // Ring lattice with k=6: C = 0.6 exactly.
  EXPECT_NEAR(dg::global_clustering(g), 0.6, 1e-9);
}

TEST(Bfs, DistancesOnPath) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {2, 3}}, 5);  // 4 isolated
  const auto dist = dg::bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], dg::kInvalidVertex);
}

TEST(Bfs, PseudoDiameterOfPathIsExact) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(dg::pseudo_diameter(g, 2), 4u);
}

TEST(Bfs, SmallWorldShrinksDiameter) {
  const auto lattice = dg::gen::watts_strogatz(400, 4, 0.0, 3);
  const auto rewired = dg::gen::watts_strogatz(400, 4, 0.3, 3);
  const auto d_lat = dg::pseudo_diameter(
      dg::build_csr(lattice.edges, lattice.num_vertices));
  const auto d_sw = dg::pseudo_diameter(
      dg::build_csr(rewired.edges, rewired.num_vertices));
  EXPECT_LT(d_sw, d_lat / 2);  // the Watts–Strogatz effect
}
