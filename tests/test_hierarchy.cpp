#include <gtest/gtest.h>

#include <set>

#include "core/hierarchy.hpp"
#include "core/seq_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "sample_graphs.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;
using dinfomap::testing::nested_graph;

namespace {
dc::FlowGraph two_triangles_flow() {
  return dc::make_flow_graph(dg::build_csr(
      {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}}));
}
}  // namespace

TEST(Hierarchy, TwoLevelCodelengthMatchesEq3) {
  // The generalized multilevel formula must reduce exactly to Eq. 3 for a
  // one-deep tree — on several graphs and partitions.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto gg = gen::sbm(150, 5, 0.25, 0.02, seed);
    const auto g = dg::build_csr(gg.edges, gg.num_vertices);
    const auto fg = dc::make_flow_graph(g);
    const auto h = dc::Hierarchy::two_level(fg, *gg.ground_truth);
    EXPECT_NEAR(h.codelength(fg),
                dc::codelength_of_partition(fg, *gg.ground_truth), 1e-10);
    EXPECT_TRUE(h.validate(fg));
    EXPECT_EQ(h.depth(), 1);
  }
}

TEST(Hierarchy, SplitNodeRecomputesExits) {
  const auto fg = two_triangles_flow();
  // Start with everything in one module.
  auto h = dc::Hierarchy::two_level(fg, dg::Partition(6, 0));
  ASSERT_EQ(h.num_leaf_modules(), 1);
  const double flat_l = h.codelength(fg);

  // Split into the two triangles: module node is id 1 (root's only child).
  h.split_node(fg, 1, {0, 0, 0, 1, 1, 1});
  EXPECT_TRUE(h.validate(fg));
  EXPECT_EQ(h.num_leaf_modules(), 2);
  EXPECT_EQ(h.depth(), 2);
  // Each triangle submodule exits over the bridge: flow 1/14.
  for (const auto& node : h.nodes()) {
    if (node.leaves.size() == 3) {
      EXPECT_NEAR(node.exit, 1.0 / 14.0, 1e-12);
    }
  }
  // The nested tree costs more than flat two-module here (an intermediate
  // codebook with one module is pure overhead) but stays finite and valid.
  EXPECT_GT(h.codelength(fg), 0.0);
  (void)flat_l;
}

TEST(Hierarchy, LeafAssignmentCoversAll) {
  const auto gg = gen::ring_of_cliques(5, 4, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  const auto h = dc::Hierarchy::two_level(fg, *gg.ground_truth);
  const auto leaf = h.leaf_assignment(g.num_vertices());
  EXPECT_EQ(leaf.size(), g.num_vertices());
  std::set<dg::VertexId> labels(leaf.begin(), leaf.end());
  EXPECT_EQ(labels.size(), 5u);
}

TEST(Hierarchy, VertexPathsUniqueAndPrefixed) {
  const auto fg = two_triangles_flow();
  auto h = dc::Hierarchy::two_level(fg, dg::Partition(6, 0));
  h.split_node(fg, 1, {0, 0, 0, 1, 1, 1});
  const auto paths = h.vertex_paths(6);
  std::set<std::string> unique(paths.begin(), paths.end());
  EXPECT_EQ(unique.size(), 6u);
  // Depth-2 hierarchy → three components "top:sub:leaf".
  for (const auto& p : paths)
    EXPECT_EQ(std::count(p.begin(), p.end(), ':'), 2) << p;
}

TEST(Hierarchy, SplitRejectsBadArguments) {
  const auto fg = two_triangles_flow();
  auto h = dc::Hierarchy::two_level(fg, dg::Partition(6, 0));
  EXPECT_THROW(h.split_node(fg, 0, {}), dinfomap::ContractViolation);   // root
  EXPECT_THROW(h.split_node(fg, 1, {0, 1}), dinfomap::ContractViolation);  // size
  h.split_node(fg, 1, {0, 0, 0, 1, 1, 1});
  EXPECT_THROW(h.split_node(fg, 1, dg::Partition(0)),
               dinfomap::ContractViolation);  // already internal
}

TEST(HierInfomap, NeverWorseThanTwoLevel) {
  for (std::uint64_t seed : {11u, 12u}) {
    const auto gg = gen::lfr_lite({}, seed);
    const auto g = dg::build_csr(gg.edges, gg.num_vertices);
    const auto result = dc::hierarchical_infomap(g);
    EXPECT_LE(result.codelength, result.two_level_codelength + 1e-9);
    EXPECT_EQ(result.leaf_assignment.size(), g.num_vertices());
  }
}

TEST(HierInfomap, FindsNestedStructure) {
  const auto g = nested_graph(5);
  dc::HierInfomapConfig cfg;
  const auto result = dc::hierarchical_infomap(g, cfg);
  const auto fg = dc::make_flow_graph(g);
  EXPECT_TRUE(result.hierarchy.validate(fg));
  // The nested SBM has 9 dense blocks inside 3 groups; the hierarchy must
  // reach below the top level and resolve more leaf modules than top ones.
  EXPECT_GE(result.hierarchy.depth(), 2);
  EXPECT_GT(result.hierarchy.num_leaf_modules(),
            static_cast<int>(result.hierarchy.nodes()[0].children.size()) - 1);
  EXPECT_LT(result.codelength, result.two_level_codelength);
}

TEST(HierInfomap, GroupTopInsertsSuperLevel) {
  // Hand-driven upward grouping on two triangle-pairs:
  // modules {t1,t2,t3,t4} grouped as {t1,t2} and {t3,t4}.
  const auto g = dg::build_csr({// two triangles tightly bridged
                                {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5},
                                {2, 3}, {1, 4},
                                // second pair, far away
                                {6, 7}, {7, 8}, {6, 8}, {9, 10}, {10, 11}, {9, 11},
                                {8, 9}, {7, 10},
                                // single weak link between the pairs
                                {5, 6, 0.1}});
  const auto fg = dc::make_flow_graph(g);
  const dg::Partition triangles = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  auto h = dc::Hierarchy::two_level(fg, triangles);
  const double flat_l = h.codelength(fg);
  h.group_top(fg, {0, 0, 1, 1});
  EXPECT_TRUE(h.validate(fg));
  EXPECT_EQ(h.depth(), 2);
  EXPECT_EQ(h.num_leaf_modules(), 4);
  // Grouping the tightly-bridged pairs must compress the walk.
  EXPECT_LT(h.codelength(fg), flat_l);
}

TEST(HierInfomap, DeterministicRepeat) {
  const auto g = nested_graph(9);
  const auto a = dc::hierarchical_infomap(g);
  const auto b = dc::hierarchical_infomap(g);
  EXPECT_EQ(a.leaf_assignment, b.leaf_assignment);
  EXPECT_DOUBLE_EQ(a.codelength, b.codelength);
}
