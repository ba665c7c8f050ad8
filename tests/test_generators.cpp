#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "graph/stats.hpp"
#include "util/check.hpp"

namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;

TEST(ErdosRenyi, ExactEdgeCountNoDuplicates) {
  const auto g = gen::erdos_renyi(100, 500, 1);
  EXPECT_EQ(g.num_vertices, 100u);
  EXPECT_EQ(g.edges.size(), 500u);
  std::unordered_set<std::uint64_t> seen;
  for (const auto& e : g.edges) {
    EXPECT_NE(e.u, e.v);
    const auto key = (std::uint64_t{std::min(e.u, e.v)} << 32) | std::max(e.u, e.v);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate edge";
  }
}

TEST(ErdosRenyi, SeedReproducible) {
  EXPECT_EQ(gen::erdos_renyi(50, 100, 7).edges, gen::erdos_renyi(50, 100, 7).edges);
  EXPECT_NE(gen::erdos_renyi(50, 100, 7).edges, gen::erdos_renyi(50, 100, 8).edges);
}

TEST(ErdosRenyi, RejectsImpossibleEdgeCount) {
  EXPECT_THROW(gen::erdos_renyi(3, 4, 1), dinfomap::ContractViolation);
}

TEST(BarabasiAlbert, ProducesHeavyHubs) {
  const auto g = gen::barabasi_albert(2000, 2, 3);
  EXPECT_EQ(g.num_vertices, 2000u);
  const auto csr = dg::build_csr(g.edges, g.num_vertices);
  const auto stats = dg::degree_stats(csr, 0);
  // Preferential attachment must create hubs far above the mean (~4).
  EXPECT_GT(stats.max_degree, 40u);
  EXPECT_LT(stats.mean_degree, 5.0);
}

TEST(BarabasiAlbert, EdgeCountFormula) {
  const gen::GeneratedGraph g = gen::barabasi_albert(100, 3, 5);
  // seed clique C(4,2)=6 + 96 joins × 3 edges.
  EXPECT_EQ(g.edges.size(), 6u + 96u * 3u);
}

TEST(BarabasiAlbert, RejectsBadParams) {
  EXPECT_THROW(gen::barabasi_albert(3, 3, 1), dinfomap::ContractViolation);
  EXPECT_THROW(gen::barabasi_albert(10, 0, 1), dinfomap::ContractViolation);
}

TEST(Rmat, ShapeAndSkew) {
  const auto g = gen::rmat(10, 8, 0.57, 0.19, 0.19, 11);
  EXPECT_EQ(g.num_vertices, 1024u);
  EXPECT_LE(g.edges.size(), 8192u);
  EXPECT_GT(g.edges.size(), 7000u);  // only self-loops dropped
  const auto csr = dg::build_csr(g.edges, g.num_vertices);
  const auto stats = dg::degree_stats(csr, 0);
  EXPECT_GT(stats.max_degree, 50u);  // skewed corners make hubs
}

TEST(Rmat, RejectsBadCorners) {
  EXPECT_THROW(gen::rmat(5, 4, 0.5, 0.5, 0.2, 1), dinfomap::ContractViolation);
}

TEST(Sbm, GroundTruthBlocksAndDensity) {
  const auto g = gen::sbm(400, 4, 0.2, 0.005, 17);
  ASSERT_TRUE(g.ground_truth.has_value());
  const auto& truth = *g.ground_truth;
  // Equal blocks of 100.
  for (dg::VertexId b = 0; b < 4; ++b) {
    const auto count = std::count(truth.begin(), truth.end(), b);
    EXPECT_EQ(count, 100);
  }
  std::uint64_t intra = 0, inter = 0;
  for (const auto& e : g.edges)
    (truth[e.u] == truth[e.v] ? intra : inter) += 1;
  // Expected: intra ≈ 4 * C(100,2) * 0.2 = 3960; inter ≈ 6*10000*0.005 = 300.
  EXPECT_NEAR(static_cast<double>(intra), 3960.0, 400.0);
  EXPECT_NEAR(static_cast<double>(inter), 300.0, 120.0);
}

TEST(Sbm, NoSelfLoopsNoDuplicates) {
  const auto g = gen::sbm(200, 2, 0.3, 0.02, 23);
  std::unordered_set<std::uint64_t> seen;
  for (const auto& e : g.edges) {
    EXPECT_NE(e.u, e.v);
    const auto key = (std::uint64_t{std::min(e.u, e.v)} << 32) | std::max(e.u, e.v);
    EXPECT_TRUE(seen.insert(key).second);
  }
}

TEST(LfrLite, CoversAllVerticesWithCommunities) {
  gen::LfrLiteParams p;
  p.n = 2000;
  p.mixing = 0.2;
  const auto g = gen::lfr_lite(p, 29);
  ASSERT_TRUE(g.ground_truth.has_value());
  EXPECT_EQ(g.ground_truth->size(), 2000u);
  // Every community within size bounds (last may absorb the tail).
  std::unordered_map<dg::VertexId, int> sizes;
  for (auto c : *g.ground_truth) ++sizes[c];
  EXPECT_GT(sizes.size(), 5u);
  for (const auto& [c, s] : sizes) EXPECT_GE(s, static_cast<int>(p.min_community));
}

TEST(LfrLite, MixingControlsInterEdges) {
  gen::LfrLiteParams p;
  p.n = 3000;
  p.mixing = 0.1;
  const auto low = gen::lfr_lite(p, 31);
  p.mixing = 0.5;
  const auto high = gen::lfr_lite(p, 31);
  auto inter_fraction = [](const gen::GeneratedGraph& g) {
    std::uint64_t inter = 0;
    for (const auto& e : g.edges)
      inter += (*g.ground_truth)[e.u] != (*g.ground_truth)[e.v];
    return static_cast<double>(inter) / static_cast<double>(g.edges.size());
  };
  EXPECT_LT(inter_fraction(low), 0.25);
  EXPECT_GT(inter_fraction(high), 0.35);
}

TEST(RingOfCliques, ExactStructure) {
  const auto g = gen::ring_of_cliques(5, 4, 0);
  EXPECT_EQ(g.num_vertices, 20u);
  // 5 cliques × C(4,2) + 5 bridges.
  EXPECT_EQ(g.edges.size(), 5u * 6u + 5u);
  ASSERT_TRUE(g.ground_truth.has_value());
  for (dg::VertexId v = 0; v < 20; ++v)
    EXPECT_EQ((*g.ground_truth)[v], v / 4);
}

TEST(RingOfCliques, RejectsDegenerate) {
  EXPECT_THROW(gen::ring_of_cliques(1, 4, 0), dinfomap::ContractViolation);
  EXPECT_THROW(gen::ring_of_cliques(3, 1, 0), dinfomap::ContractViolation);
}

// Property sweep: every generator yields a CSR that validates.
class GeneratorValidation : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorValidation, ::testing::Values(1, 2, 3));

TEST_P(GeneratorValidation, AllFamiliesBuildValidCsr) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const gen::GeneratedGraph graphs[] = {
      gen::erdos_renyi(200, 600, seed),
      gen::barabasi_albert(300, 2, seed),
      gen::rmat(8, 8, 0.57, 0.19, 0.19, seed),
      gen::sbm(200, 4, 0.2, 0.01, seed),
      gen::lfr_lite({}, seed),
      gen::ring_of_cliques(6, 5, seed),
  };
  for (const auto& g : graphs) {
    const auto csr = dg::build_csr(g.edges, g.num_vertices);
    EXPECT_TRUE(csr.validate());
    if (g.ground_truth) {
      EXPECT_EQ(g.ground_truth->size(), g.num_vertices);
    }
  }
}
