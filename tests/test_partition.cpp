#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <string>

#include "graph/blockgraph/blockgraph.hpp"
#include "graph/blockgraph/writer.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "partition/arc_partition.hpp"
#include "partition/metrics.hpp"
#include "util/stats.hpp"

namespace dg = dinfomap::graph;
namespace dp = dinfomap::partition;
namespace gen = dinfomap::graph::gen;

namespace {
dg::Csr star_plus_path() {
  // Hub 0 with 8 spokes, plus a path 9-10-11-12.
  dg::EdgeList edges;
  for (dg::VertexId v = 1; v <= 8; ++v) edges.push_back({0, v});
  edges.push_back({9, 10});
  edges.push_back({10, 11});
  edges.push_back({11, 12});
  return dg::build_csr(edges);
}

dg::Csr scale_free(std::uint64_t seed = 42) {
  const auto g = gen::barabasi_albert(3000, 2, seed);
  return dg::build_csr(g.edges, g.num_vertices);
}
}  // namespace

TEST(OneD, AssignsArcsBySourceOwner) {
  const auto g = star_plus_path();
  const auto part = dp::make_oned(g, 3);
  EXPECT_TRUE(dp::validate_partition(part, g));
  for (int r = 0; r < 3; ++r)
    for (const auto& arc : part.rank_arcs[r])
      EXPECT_EQ(part.owner(arc.source), r);
}

TEST(OneD, HubConcentratesLoad) {
  const auto g = star_plus_path();
  const auto part = dp::make_oned(g, 13);  // one vertex per rank
  const auto loads = dp::arcs_per_rank(part);
  EXPECT_EQ(loads[0], 8u);  // the whole star adjacency sits on rank 0
}

TEST(Delegate, DefaultThresholdIsRankCount) {
  const auto g = scale_free();
  const auto part = dp::make_delegate(g, 8);
  EXPECT_EQ(part.degree_threshold, 8u);
  EXPECT_EQ(part.strategy, dp::Strategy::kDelegate);
}

TEST(Delegate, EveryArcAssignedExactlyOnce) {
  const auto g = scale_free();
  for (int p : {2, 3, 5, 8}) {
    const auto part = dp::make_delegate(g, p);
    EXPECT_TRUE(dp::validate_partition(part, g)) << "p=" << p;
  }
}

TEST(Delegate, HubsAreFlagged) {
  const auto g = star_plus_path();
  const auto part = dp::make_delegate(g, 3, 4);
  EXPECT_TRUE(part.delegate(0));  // degree 8 > 4
  for (dg::VertexId v = 1; v < 13; ++v) EXPECT_FALSE(part.delegate(v));
}

TEST(Delegate, LowDegreeAdjacencyStaysWithOwner) {
  const auto g = scale_free();
  const auto part = dp::make_delegate(g, 4);
  // Count per-vertex arcs across ranks for non-delegates: all must be at the
  // owner (validate_partition also checks this, but assert the distribution).
  std::vector<std::uint64_t> at_owner(g.num_vertices(), 0);
  for (int r = 0; r < 4; ++r)
    for (const auto& arc : part.rank_arcs[r])
      if (!part.delegate(arc.source)) {
        EXPECT_EQ(part.owner(arc.source), r);
        ++at_owner[arc.source];
      }
  for (dg::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!part.delegate(v)) {
      EXPECT_EQ(at_owner[v], g.degree(v));
    }
  }
}

TEST(OneDBalanced, ContiguousAndBalanced) {
  const auto g = scale_free();
  const auto part = dp::make_oned_balanced(g, 8);
  EXPECT_TRUE(dp::validate_partition(part, g));
  // Ownership is a monotone step function of vertex id.
  for (dg::VertexId v = 1; v < g.num_vertices(); ++v)
    EXPECT_GE(part.owner(v), part.owner(v - 1));
  const auto s = dinfomap::util::summarize_counts(dp::arcs_per_rank(part));
  // BA puts early hubs together, so balance is bounded by the largest hub;
  // it must still beat round-robin 1D substantially.
  const auto rr = dinfomap::util::summarize_counts(
      dp::arcs_per_rank(dp::make_oned(g, 8)));
  EXPECT_LT(s.imbalance, rr.imbalance);
}

TEST(HashPartition, ValidAndSeedStable) {
  const auto g = scale_free();
  const auto a = dp::make_hash(g, 4, 7);
  const auto b = dp::make_hash(g, 4, 7);
  const auto c = dp::make_hash(g, 4, 8);
  EXPECT_TRUE(dp::validate_partition(a, g));
  EXPECT_EQ(a.owners, b.owners);
  EXPECT_NE(a.owners, c.owners);
}

TEST(Ownership, RoundRobinDetection) {
  const auto g = scale_free();
  EXPECT_TRUE(dp::make_oned(g, 4).round_robin_ownership());
  EXPECT_TRUE(dp::make_delegate(g, 4).round_robin_ownership());
  EXPECT_FALSE(dp::make_oned_balanced(g, 4).round_robin_ownership());
}

TEST(Delegate, BalancesLoadBetterThanOneD) {
  const auto g = scale_free();
  for (int p : {4, 8, 16}) {
    const auto oned = dinfomap::util::summarize_counts(
        dp::arcs_per_rank(dp::make_oned(g, p)));
    const auto del = dinfomap::util::summarize_counts(
        dp::arcs_per_rank(dp::make_delegate(g, p)));
    EXPECT_LT(del.imbalance, oned.imbalance) << "p=" << p;
    EXPECT_LT(del.imbalance, 1.3) << "p=" << p;  // near-even, as the paper claims
  }
}

TEST(Delegate, ReducesWorstCaseGhosts) {
  const auto g = scale_free();
  const int p = 8;
  const auto g_1d = dp::ghosts_per_rank(dp::make_oned(g, p));
  const auto g_dp = dp::ghosts_per_rank(dp::make_delegate(g, p));
  const auto s1 = dinfomap::util::summarize_counts(g_1d);
  const auto s2 = dinfomap::util::summarize_counts(g_dp);
  EXPECT_LT(s2.max, s1.max);
}

TEST(Delegate, SinglePartitionDegenerate) {
  const auto g = star_plus_path();
  const auto part = dp::make_delegate(g, 1);
  EXPECT_TRUE(dp::validate_partition(part, g));
  EXPECT_EQ(part.rank_arcs[0].size(), g.num_arcs());
}

TEST(Delegate, ExplicitThresholdHonored) {
  const auto g = scale_free();
  const auto part = dp::make_delegate(g, 4, 1000000);
  // Threshold too high for any hub: behaves like 1D (all arcs at source
  // owner) but still validates.
  EXPECT_TRUE(dp::validate_partition(part, g));
  for (dg::VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_FALSE(part.delegate(v));
}

TEST(Metrics, GhostDefinitionMatchesLocality) {
  // Path 0-1-2 on 3 ranks, 1D: rank 0 holds arcs of vertex 0 (→1), so 1 is a
  // ghost there.
  const auto g = dg::build_csr({{0, 1}, {1, 2}});
  const auto part = dp::make_oned(g, 3);
  const auto ghosts = dp::ghosts_per_rank(part);
  EXPECT_EQ(ghosts[0], 1u);  // sees 1
  EXPECT_EQ(ghosts[1], 2u);  // sees 0 and 2
  EXPECT_EQ(ghosts[2], 1u);  // sees 1
}

class PartitionSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, PartitionSweep, ::testing::Values(1, 2, 3, 4, 7, 16));

TEST_P(PartitionSweep, BothStrategiesValidateOnLfr) {
  const auto g = gen::lfr_lite({}, 99);
  const auto csr = dg::build_csr(g.edges, g.num_vertices);
  EXPECT_TRUE(dp::validate_partition(dp::make_oned(csr, GetParam()), csr));
  EXPECT_TRUE(dp::validate_partition(dp::make_delegate(csr, GetParam()), csr));
}

// ---- validate_partition rejects every way a partition can be wrong -------

namespace {

/// Index into rank 0's arcs of an arc whose low-degree source also holds the
/// next arc there (rank 0 owns that vertex's whole adjacency).
std::size_t low_degree_pair(const dp::ArcPartition& part) {
  const auto& arcs = part.rank_arcs[0];
  for (std::size_t i = 0; i + 1 < arcs.size(); ++i)
    if (!part.delegate(arcs[i].source) && arcs[i + 1].source == arcs[i].source)
      return i;
  ADD_FAILURE() << "no low-degree vertex with two arcs on rank 0";
  return 0;
}

void expect_rejections(const dg::GraphView& g, const dp::ArcPartition& good) {
  ASSERT_TRUE(dp::validate_partition(good, g));
  ASSERT_GE(good.num_ranks, 2);
  const std::size_t i = low_degree_pair(good);
  const dg::VertexId u = good.rank_arcs[0][i].source;
  // A vertex u is not adjacent to, for the extra arc.
  dg::VertexId stranger = 0;
  auto cursor = g.cursor();
  const auto row = g.neighbors(u, cursor);
  const auto adjacent = [&](dg::VertexId w) {
    for (const auto& nb : row)
      if (nb.target == w) return true;
    return false;
  };
  while (stranger == u || adjacent(stranger)) ++stranger;

  struct Case {
    const char* name;
    std::function<void(std::vector<std::vector<dp::Arc>>&)> mutate;
  };
  const Case cases[] = {
      {"missing arc",
       [&](auto& ra) { ra[0].erase(ra[0].begin() + static_cast<long>(i)); }},
      // Same per-source count, so only the bucket comparison can catch it.
      {"duplicated arc", [&](auto& ra) { ra[0][i + 1] = ra[0][i]; }},
      {"changed weight", [&](auto& ra) { ra[0][i].weight += 0.5; }},
      {"retargeted arc", [&](auto& ra) { ra[0][i].target = stranger; }},
      {"extra arc", [&](auto& ra) { ra[0].push_back({u, stranger, 1.0}); }},
      {"out-of-range source",
       [&](auto& ra) { ra[0][i].source = g.num_vertices(); }},
      {"low-degree source on a non-owner rank",
       [&](auto& ra) {
         ra[1].push_back(ra[0][i]);
         ra[0].erase(ra[0].begin() + static_cast<long>(i));
       }},
  };
  for (const Case& c : cases) {
    dp::ArcPartition bad = good;
    c.mutate(bad.rank_arcs);
    EXPECT_FALSE(dp::validate_partition(bad, g)) << c.name;
  }
}

}  // namespace

TEST(ValidatePartition, RejectsEveryCorruptionOnCsr) {
  const auto g = scale_free(7);
  expect_rejections(g, dp::make_delegate(g, 3));
  expect_rejections(g, dp::make_oned(g, 2));
}

TEST(ValidatePartition, RejectsEveryCorruptionOnBlocks) {
  const auto csr = scale_free(7);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dinfomap_validate_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string file = (dir / "g.blockgraph").string();
  dg::blockgraph::write_block_file(file, csr);
  {
    const auto bg = dg::blockgraph::BlockGraph::open(file);
    const dg::GraphView g(bg);
    expect_rejections(g, dp::make_delegate(g, 3));
    expect_rejections(g, dp::make_oned(g, 2));
  }
  std::filesystem::remove_all(dir);
}
