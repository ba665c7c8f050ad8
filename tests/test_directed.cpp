// Directed substrate and directed-Infomap extension tests.
#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "core/directed_infomap.hpp"
#include "core/mapequation.hpp"
#include "graph/dicsr.hpp"
#include "quality/metrics.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;

namespace {
/// Two directed 3-cycles {0,1,2} and {3,4,5}, weakly coupled 2→3, 5→0.
dg::DiCsr two_cycles() {
  return dg::DiCsr::from_edges({{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5},
                                {5, 3}, {2, 3, 0.1}, {5, 0, 0.1}});
}

/// k directed cliques (all ordered pairs) in a weak ring.
dg::EdgeList directed_clique_ring(dg::VertexId k, dg::VertexId size) {
  dg::EdgeList edges;
  for (dg::VertexId c = 0; c < k; ++c) {
    const dg::VertexId base = c * size;
    for (dg::VertexId i = 0; i < size; ++i)
      for (dg::VertexId j = 0; j < size; ++j)
        if (i != j) edges.push_back({base + i, base + j, 1.0});
    edges.push_back({base, ((c + 1) % k) * size, 0.1});
  }
  return edges;
}
}  // namespace

TEST(DiCsr, BuildAndMirror) {
  const auto g = two_cycles();
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_arcs(), 8u);
  EXPECT_EQ(g.out_degree(2), 2u);  // 2→0 and 2→3
  EXPECT_EQ(g.in_degree(0), 2u);   // 2→0 and 5→0
  EXPECT_TRUE(g.validate());
}

TEST(DiCsr, ParallelArcsCombine) {
  const auto g = dg::DiCsr::from_edges({{0, 1, 1.0}, {0, 1, 2.0}});
  EXPECT_EQ(g.num_arcs(), 1u);
  EXPECT_DOUBLE_EQ(g.out_weight(0), 3.0);
}

TEST(DiCsr, ParallelArcsSumInInputOrder) {
  // Arcs 2p→2p+1 with weights 0.1, 0.2, 0.3 in that input order, the three
  // rounds each visiting the 30 arcs in a fresh shuffled order.
  const double w[3] = {0.1, 0.2, 0.3};
  dinfomap::util::Xoshiro256 rng(7);
  std::vector<dg::VertexId> order(30);
  std::iota(order.begin(), order.end(), dg::VertexId{0});
  dg::EdgeList edges;
  for (const double wr : w) {
    dinfomap::util::deterministic_shuffle(order, rng);
    for (const dg::VertexId p : order) edges.push_back({2 * p, 2 * p + 1, wr});
  }
  const double in_order = (0.1 + 0.2) + 0.3;
  ASSERT_NE(std::bit_cast<std::uint64_t>(in_order),
            std::bit_cast<std::uint64_t>(0.1 + (0.2 + 0.3)));
  const auto g = dg::DiCsr::from_edges(edges);
  ASSERT_EQ(g.num_arcs(), 30u);
  for (dg::VertexId p = 0; p < 30; ++p) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.out_neighbors(2 * p)[0].weight),
              std::bit_cast<std::uint64_t>(in_order)) << "arc " << p;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.in_neighbors(2 * p + 1)[0].weight),
              std::bit_cast<std::uint64_t>(in_order)) << "arc " << p;
  }
  EXPECT_TRUE(g.validate());
}

TEST(DiCsr, DirectionMatters) {
  const auto g = dg::DiCsr::from_edges({{0, 1}});
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_EQ(g.in_degree(1), 1u);
}

TEST(PageRank, SumsToOneAndRanksHub) {
  // Star pointing at 0: everyone links to 0; 0 is dangling.
  dg::EdgeList edges;
  for (dg::VertexId v = 1; v < 10; ++v) edges.push_back({v, 0});
  const auto g = dg::DiCsr::from_edges(edges);
  const auto pr = dc::pagerank(g);
  double sum = 0;
  for (double p : pr) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (dg::VertexId v = 1; v < 10; ++v) EXPECT_GT(pr[0], pr[v]);
}

TEST(PageRank, UniformOnSymmetricCycle) {
  const auto g = dg::DiCsr::from_edges({{0, 1}, {1, 2}, {2, 0}});
  const auto pr = dc::pagerank(g);
  for (double p : pr) EXPECT_NEAR(p, 1.0 / 3.0, 1e-9);
}

TEST(PageRank, DanglingMassRedistributed) {
  // 0→1, 1 dangling: no mass may vanish.
  const auto g = dg::DiCsr::from_edges({{0, 1}});
  const auto pr = dc::pagerank(g);
  EXPECT_NEAR(pr[0] + pr[1], 1.0, 1e-9);
  EXPECT_GT(pr[1], pr[0]);  // 1 receives 0's flow
}

TEST(PageRank, RejectsBadDamping) {
  const auto g = dg::DiCsr::from_edges({{0, 1}});
  dc::PageRankConfig cfg;
  cfg.damping = 1.0;
  EXPECT_THROW(dc::pagerank(g, cfg), dinfomap::ContractViolation);
}

TEST(DirectedInfomap, RecoversDirectedCliqueRing) {
  const auto g = dg::DiCsr::from_edges(directed_clique_ring(6, 5));
  const auto result = dc::directed_infomap(g);
  EXPECT_EQ(result.num_modules(), 6u);
  dg::Partition truth(30);
  for (dg::VertexId v = 0; v < 30; ++v) truth[v] = v / 5;
  EXPECT_DOUBLE_EQ(dinfomap::quality::nmi(result.assignment, truth), 1.0);
}

TEST(DirectedInfomap, TwoCyclesSeparate) {
  const auto result = dc::directed_infomap(two_cycles());
  EXPECT_EQ(result.num_modules(), 2u);
  EXPECT_EQ(result.assignment[0], result.assignment[1]);
  EXPECT_NE(result.assignment[0], result.assignment[3]);
}

TEST(DirectedInfomap, ImprovesOnSingletons) {
  const auto g = dg::DiCsr::from_edges(directed_clique_ring(8, 4));
  const auto result = dc::directed_infomap(g);
  EXPECT_LT(result.codelength, result.singleton_codelength);
}

TEST(DirectedInfomap, ReportedCodelengthMatchesRescoring) {
  const auto g = dg::DiCsr::from_edges(directed_clique_ring(5, 4));
  dc::DirectedInfomapConfig cfg;
  const auto result = dc::directed_infomap(g, cfg);
  const auto pr = dc::pagerank(g, cfg.pagerank);
  EXPECT_NEAR(result.codelength,
              dc::directed_codelength(g, pr, result.assignment,
                                      cfg.pagerank.damping),
              1e-9);
}

TEST(DirectedInfomap, DeterministicForSeed) {
  const auto g = dg::DiCsr::from_edges(directed_clique_ring(6, 4));
  const auto a = dc::directed_infomap(g);
  const auto b = dc::directed_infomap(g);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(DirectedCodelength, AllInOneModuleIsEntropy) {
  const auto g = two_cycles();
  const auto pr = dc::pagerank(g);
  dg::Partition one(6, 0);
  double expected = 0;
  for (double p : pr) expected -= dc::plogp(p);
  EXPECT_NEAR(dc::directed_codelength(g, pr, one), expected, 1e-12);
}

// Property: random directed move deltas recomputed from scratch agree with
// the monotone trace (the optimizer never worsens L across levels).
class DirectedSeeds : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, DirectedSeeds, ::testing::Values(1u, 2u, 3u));

TEST_P(DirectedSeeds, CodelengthNeverAboveSingleton) {
  // Random directed graph with planted blocks: within-block arcs dense.
  dinfomap::util::Xoshiro256 rng(GetParam());
  dg::EdgeList edges;
  const dg::VertexId n = 120, blocks = 4, bs = n / blocks;
  for (dg::VertexId u = 0; u < n; ++u) {
    for (int t = 0; t < 6; ++t) {
      const auto in_block = static_cast<dg::VertexId>(
          (u / bs) * bs + rng.bounded(bs));
      if (in_block != u) edges.push_back({u, in_block, 1.0});
    }
    const auto anywhere = static_cast<dg::VertexId>(rng.bounded(n));
    if (anywhere != u) edges.push_back({u, anywhere, 0.3});
  }
  const auto g = dg::DiCsr::from_edges(edges);
  dc::DirectedInfomapConfig cfg;
  cfg.seed = GetParam();
  const auto result = dc::directed_infomap(g, cfg);
  EXPECT_LT(result.codelength, result.singleton_codelength);
  const auto pr = dc::pagerank(g, cfg.pagerank);
  EXPECT_NEAR(result.codelength,
              dc::directed_codelength(g, pr, result.assignment,
                                      cfg.pagerank.damping),
              1e-9);
}
