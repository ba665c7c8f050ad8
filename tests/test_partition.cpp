#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/blockgraph/blockgraph.hpp"
#include "graph/blockgraph/writer.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "partition/arc_partition.hpp"
#include "partition/metrics.hpp"
#include "util/check.hpp"
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
  for (dg::VertexId u = 0; u < g.num_vertices(); ++u)
    for (dg::EdgeIndex e = g.offsets()[u]; e < g.offsets()[u + 1]; ++e)
      EXPECT_EQ(part.arc_rank[e], part.owner(u));
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
  for (dg::VertexId u = 0; u < g.num_vertices(); ++u)
    for (dg::EdgeIndex e = g.offsets()[u]; e < g.offsets()[u + 1]; ++e)
      if (!part.delegate(u)) {
        EXPECT_EQ(part.arc_rank[e], part.owner(u));
        ++at_owner[u];
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
  EXPECT_EQ(dp::arcs_per_rank(part), std::vector<std::uint64_t>{g.num_arcs()});
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
//
// A partition records a rank per arc and reads the arcs themselves from the
// graph, so a missing, duplicated, retargeted, reweighted or extra arc
// cannot be expressed. What can go wrong is a rank number or an array size.

namespace {

void expect_rejections(const dg::GraphView& g, const dp::ArcPartition& good) {
  ASSERT_TRUE(dp::validate_partition(good, g));
  ASSERT_GE(good.num_ranks, 2);
  // An arc of a low-degree vertex, and a rank other than its owner.
  dg::VertexId u = 0;
  while (good.delegate(u) || g.degree(u) == 0) ++u;
  const dg::EdgeIndex e = g.first_arc(u);
  const auto elsewhere =
      static_cast<std::uint16_t>((good.owner(u) + 1) % good.num_ranks);

  struct Case {
    const char* name;
    std::function<void(dp::ArcPartition&)> mutate;
  };
  const Case cases[] = {
      {"arc_rank one short", [](auto& p) { p.arc_rank.pop_back(); }},
      {"arc_rank one long", [](auto& p) { p.arc_rank.push_back(0); }},
      {"rank >= p",
       [&](auto& p) { p.arc_rank[e] = static_cast<std::uint16_t>(p.num_ranks); }},
      {"low-degree source on a non-owner rank",
       [&](auto& p) { p.arc_rank[e] = elsewhere; }},
      {"owners one short", [](auto& p) { p.owners.pop_back(); }},
      {"owners one long", [](auto& p) { p.owners.push_back(0); }},
      {"owner >= p", [](auto& p) { p.owners.back() = p.num_ranks; }},
      {"is_delegate one short", [](auto& p) { p.is_delegate.pop_back(); }},
      {"is_delegate one long", [](auto& p) { p.is_delegate.push_back(0); }},
      {"no ranks", [](auto& p) { p.num_ranks = 0; }},
  };
  for (const Case& c : cases) {
    dp::ArcPartition bad = good;
    c.mutate(bad);
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

TEST(ValidatePartition, RankCountBoundedByArcRankWidth) {
  const auto g = star_plus_path();
  EXPECT_THROW((void)dp::make_oned(g, dp::kMaxRanks + 1),
               dinfomap::ContractViolation);
  EXPECT_THROW((void)dp::make_delegate(g, dp::kMaxRanks + 1),
               dinfomap::ContractViolation);
}

// ---- pinned partitions ----------------------------------------------------
//
// Every builder's rank for every arc, as an FNV-1a hash over arc_rank in arc
// order, plus the per-rank arc and ghost counts. The pins were recorded from
// the builders that stored a copy of every arc per rank, before arc_rank
// replaced them, so they prove that every rank's arc set is unchanged.

namespace {

/// Two planted communities on ids 0..47, a triangle on 48..50, and isolated
/// ids 51..59 (the GoldenPin graph of test_dist_golden.cpp).
dg::Csr golden_graph() {
  auto gg = gen::sbm(48, 2, 0.5, 0.04, 5);
  gg.edges.push_back({48, 49, 1.0});
  gg.edges.push_back({49, 50, 1.0});
  gg.edges.push_back({48, 50, 1.0});
  return dg::build_csr(gg.edges, 60);
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t rank_hash(const dp::ArcPartition& part) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint16_t r : part.arc_rank) h = fnv1a(h, r);
  return h;
}

/// Whether the delegate rebalance had pooled (hub→hub) arcs to place, and
/// whether it then shed load: the loads after placing the pool greedily
/// differ from the final ones.
std::pair<bool, bool> pool_and_shed(const dg::Csr& g, const dp::ArcPartition& part) {
  std::vector<std::uint64_t> load(part.num_ranks, 0);
  std::uint64_t pooled = 0;
  for (dg::VertexId u = 0; u < g.num_vertices(); ++u)
    for (const auto& nb : g.neighbors(u)) {
      if (!part.delegate(u))
        ++load[part.owner(u)];
      else if (!part.delegate(nb.target))
        ++load[part.owner(nb.target)];
      else
        ++pooled;
    }
  const bool pool = pooled > 0;
  for (; pooled > 0; --pooled) ++*std::min_element(load.begin(), load.end());
  return {pool, load != dp::arcs_per_rank(part)};
}

enum GraphId { kScaleFree, kGolden };
enum Builder { kOneD, kOneDBalanced, kHash, kDelegate };

struct PartitionPin {
  GraphId graph;
  Builder builder;
  dg::EdgeIndex d_high;  ///< kDelegate only; 0 = the default d_high = p
  int p;
  std::uint64_t rank_hash;
  std::vector<std::uint64_t> arcs;
  std::vector<std::uint64_t> ghosts;
};

// d_high 24 on kScaleFree and 16 on kGolden: at every p >= 2 the rebalance
// both places pooled hub→hub arcs and sheds hub-sourced arcs, past the
// pooled ones into the target-assigned ones.
const PartitionPin kPins[] = {
    {kScaleFree, kOneD, 0, 1, 0x46b5dac54df70b65ULL, {11994}, {0}},
    {kScaleFree, kOneD, 0, 2, 0x17f589182d320685ULL, {6088, 5906}, {1274, 1250}},
    {kScaleFree, kOneD, 0, 3, 0xfb712e5da0734466ULL, {3886, 3847, 4261}, {1346, 1305, 1428}},
    {kScaleFree, kOneD, 0, 4, 0x98d68f0917b22fc7ULL, {2975, 3012, 3113, 2894}, {1304, 1315, 1341, 1279}},
    {kScaleFree, kOneD, 0, 8, 0xaf1ece0b4951d4c7ULL, {1497, 1531, 1670, 1374, 1478, 1481, 1443, 1520}, {918, 945, 1045, 866, 950, 939, 898, 963}},
    {kScaleFree, kOneDBalanced, 0, 1, 0x46b5dac54df70b65ULL, {11994}, {0}},
    {kScaleFree, kOneDBalanced, 0, 2, 0x9e2d5f3cbf76dec5ULL, {6000, 5994}, {1946, 653}},
    {kScaleFree, kOneDBalanced, 0, 3, 0xf66b047f35f2a3e7ULL, {4001, 4004, 3989}, {1904, 1371, 950}},
    {kScaleFree, kOneDBalanced, 0, 4, 0x0f16075a5285efc4ULL, {3000, 3000, 2997, 2997}, {1699, 1387, 1153, 1006}},
    {kScaleFree, kOneDBalanced, 0, 8, 0x170aae372d226447ULL, {1505, 1495, 1498, 1502, 1497, 1500, 1498, 1499}, {1104, 1042, 950, 941, 895, 864, 842, 848}},
    {kScaleFree, kHash, 0, 1, 0x46b5dac54df70b65ULL, {11994}, {0}},
    {kScaleFree, kHash, 0, 2, 0xe29d32fc2917aea4ULL, {6033, 5961}, {1224, 1306}},
    {kScaleFree, kHash, 0, 3, 0x79e600c281bc1f45ULL, {4164, 4102, 3728}, {1393, 1354, 1312}},
    {kScaleFree, kHash, 0, 4, 0x2a65505daa211a64ULL, {2902, 2894, 3131, 3067}, {1272, 1256, 1323, 1396}},
    {kScaleFree, kHash, 0, 8, 0xa7f2c5d2cd7625e0ULL, {1470, 1407, 1799, 1665, 1432, 1487, 1332, 1402}, {915, 871, 1053, 1056, 867, 908, 869, 873}},
    {kScaleFree, kDelegate, 0, 1, 0x46b5dac54df70b65ULL, {11994}, {0}},
    {kScaleFree, kDelegate, 0, 2, 0x6996e6f6f71cc1e4ULL, {5997, 5997}, {0, 0}},
    {kScaleFree, kDelegate, 0, 3, 0xbdbf09b0f597ae85ULL, {3998, 3998, 3998}, {217, 205, 201}},
    {kScaleFree, kDelegate, 0, 4, 0xb7867e6b8ffe7a64ULL, {2999, 2999, 2998, 2998}, {391, 377, 378, 405}},
    {kScaleFree, kDelegate, 0, 8, 0x482ffb095ddc8b64ULL, {1500, 1500, 1499, 1499, 1499, 1499, 1499, 1499}, {553, 538, 533, 528, 600, 556, 534, 582}},
    {kScaleFree, kDelegate, 24, 1, 0x46b5dac54df70b65ULL, {11994}, {0}},
    {kScaleFree, kDelegate, 24, 2, 0xe9e7a49e06810fc4ULL, {5997, 5997}, {1175, 1173}},
    {kScaleFree, kDelegate, 24, 3, 0xcb2232aeb1ed8c25ULL, {3998, 3998, 3998}, {1251, 1212, 1241}},
    {kScaleFree, kDelegate, 24, 4, 0x70b316500d1b1ce7ULL, {2999, 2998, 2999, 2998}, {1207, 1188, 1169, 1167}},
    {kScaleFree, kDelegate, 24, 8, 0x3a6fbe03e03292a0ULL, {1500, 1499, 1499, 1499, 1500, 1499, 1500, 1498}, {823, 829, 824, 793, 875, 835, 827, 828}},
    {kGolden, kOneD, 0, 1, 0x357349acac046065ULL, {610}, {0}},
    {kGolden, kOneD, 0, 2, 0x96dfedef898d1165ULL, {310, 300}, {25, 26}},
    {kGolden, kOneD, 0, 3, 0x3669284fa2c7ca04ULL, {191, 207, 212}, {34, 34, 34}},
    {kGolden, kOneD, 0, 4, 0x374b549bff084a65ULL, {163, 153, 147, 147}, {38, 38, 37, 36}},
    {kGolden, kOneD, 0, 8, 0xa7a323f0d73f1c61ULL, {82, 77, 77, 71, 81, 76, 70, 76}, {42, 41, 36, 36, 38, 36, 34, 34}},
    {kGolden, kOneDBalanced, 0, 1, 0x357349acac046065ULL, {610}, {0}},
    {kGolden, kOneDBalanced, 0, 2, 0x230afa57e07c95e4ULL, {315, 295}, {19, 14}},
    {kGolden, kOneDBalanced, 0, 3, 0x36e0504ba3575144ULL, {205, 209, 196}, {27, 32, 18}},
    {kGolden, kOneDBalanced, 0, 4, 0xf9d863900151a687ULL, {164, 151, 144, 151}, {28, 27, 24, 20}},
    {kGolden, kOneDBalanced, 0, 8, 0x69809ea035d169e0ULL, {84, 80, 66, 85, 72, 72, 79, 72}, {26, 25, 26, 29, 25, 24, 23, 22}},
    {kGolden, kHash, 0, 1, 0x357349acac046065ULL, {610}, {0}},
    {kGolden, kHash, 0, 2, 0x36c3f661b3225604ULL, {311, 299}, {25, 26}},
    {kGolden, kHash, 0, 3, 0xe6f1e59347c698e7ULL, {241, 174, 195}, {30, 34, 35}},
    {kGolden, kHash, 0, 4, 0x6edea4914881be46ULL, {144, 113, 167, 186}, {38, 40, 34, 35}},
    {kGolden, kHash, 0, 8, 0x2d68bb9d54032042ULL, {83, 67, 111, 106, 61, 46, 56, 80}, {37, 41, 38, 35, 36, 32, 36, 40}},
    {kGolden, kDelegate, 0, 1, 0x357349acac046065ULL, {610}, {0}},
    {kGolden, kDelegate, 0, 2, 0xb499494d4217c804ULL, {305, 305}, {1, 2}},
    {kGolden, kDelegate, 0, 3, 0xf10051eb09760ea6ULL, {204, 203, 203}, {2, 2, 2}},
    {kGolden, kDelegate, 0, 4, 0x424deb1f1fb3ee04ULL, {153, 153, 152, 152}, {2, 2, 2, 0}},
    {kGolden, kDelegate, 0, 8, 0xb7513261068eba84ULL, {77, 77, 76, 76, 76, 76, 76, 76}, {2, 2, 2, 0, 0, 0, 0, 0}},
    {kGolden, kDelegate, 16, 1, 0x357349acac046065ULL, {610}, {0}},
    {kGolden, kDelegate, 16, 2, 0xf32594bdc4824e24ULL, {305, 305}, {21, 25}},
    {kGolden, kDelegate, 16, 3, 0xd8a00a0c52c0d787ULL, {203, 204, 203}, {30, 30, 32}},
    {kGolden, kDelegate, 16, 4, 0xea3fcaebe2f66747ULL, {153, 152, 153, 152}, {33, 35, 32, 32}},
    {kGolden, kDelegate, 16, 8, 0x1ea9858de900adc7ULL, {75, 75, 77, 77, 81, 74, 77, 74}, {33, 32, 31, 31, 34, 28, 29, 28}},
};

}  // namespace

TEST(PartitionPins, EveryBuilderReproducesPinnedArcRanks) {
  const dg::Csr graphs[] = {scale_free(7), golden_graph()};
  for (const PartitionPin& pin : kPins) {
    const dg::Csr& g = graphs[pin.graph];
    const auto part = [&] {
      switch (pin.builder) {
        case kOneD: return dp::make_oned(g, pin.p);
        case kOneDBalanced: return dp::make_oned_balanced(g, pin.p);
        case kHash: return dp::make_hash(g, pin.p);
        case kDelegate: break;
      }
      return dp::make_delegate(g, pin.p, pin.d_high);
    }();
    const std::string where = "graph " + std::to_string(pin.graph) + " builder " +
                              std::to_string(pin.builder) + " d_high " +
                              std::to_string(pin.d_high) + " p " +
                              std::to_string(pin.p);
    ASSERT_TRUE(dp::validate_partition(part, g)) << where;
    EXPECT_EQ(rank_hash(part), pin.rank_hash) << where;
    EXPECT_EQ(dp::arcs_per_rank(part), pin.arcs) << where;
    EXPECT_EQ(dp::ghosts_per_rank(part), pin.ghosts) << where;
    if (pin.d_high != 0 && pin.p >= 2) {
      const auto [pool, shed] = pool_and_shed(g, part);
      EXPECT_TRUE(pool) << where;
      EXPECT_TRUE(shed) << where;
    }
  }
}
