#include <gtest/gtest.h>

#include <numeric>

#include "graph/builder.hpp"
#include "quality/community_stats.hpp"
#include "quality/metrics.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace dq = dinfomap::quality;
namespace dg = dinfomap::graph;

namespace {
dg::Partition shuffled_labels(const dg::Partition& p, std::uint64_t seed) {
  // Relabel communities with a random bijection — all metrics must be
  // invariant under it.
  dg::VertexId max_label = 0;
  for (auto c : p) max_label = std::max(max_label, c);
  std::vector<dg::VertexId> remap(max_label + 1);
  std::iota(remap.begin(), remap.end(), 1000);
  dinfomap::util::Xoshiro256 rng(seed);
  dinfomap::util::deterministic_shuffle(remap, rng);
  dg::Partition out(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) out[i] = remap[p[i]];
  return out;
}
}  // namespace

TEST(Nmi, IdenticalPartitionsScoreOne) {
  const dg::Partition p = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(dq::nmi(p, p), 1.0);
  EXPECT_DOUBLE_EQ(dq::nmi(p, shuffled_labels(p, 1)), 1.0);
}

TEST(Nmi, IndependentPartitionsScoreNearZero) {
  // a splits first/second half; b splits even/odd — independent for n=40.
  dg::Partition a(40), b(40);
  for (std::size_t i = 0; i < 40; ++i) {
    a[i] = i < 20 ? 0 : 1;
    b[i] = i % 2;
  }
  EXPECT_NEAR(dq::nmi(a, b), 0.0, 1e-9);
}

TEST(Nmi, SymmetricInArguments) {
  const dg::Partition a = {0, 0, 1, 1, 2, 2, 2, 0};
  const dg::Partition b = {0, 1, 1, 1, 2, 0, 2, 0};
  EXPECT_DOUBLE_EQ(dq::nmi(a, b), dq::nmi(b, a));
}

TEST(Nmi, TrivialSingleClusterPair) {
  const dg::Partition a = {5, 5, 5};
  EXPECT_DOUBLE_EQ(dq::nmi(a, a), 1.0);
}

TEST(Nmi, BoundedInUnitInterval) {
  dinfomap::util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    dg::Partition a(50), b(50);
    for (std::size_t i = 0; i < 50; ++i) {
      a[i] = static_cast<dg::VertexId>(rng.bounded(5));
      b[i] = static_cast<dg::VertexId>(rng.bounded(7));
    }
    const double v = dq::nmi(a, b);
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(FMeasure, PerfectAndDegraded) {
  const dg::Partition a = {0, 0, 0, 1, 1, 1};
  EXPECT_DOUBLE_EQ(dq::f_measure(a, a), 1.0);
  const dg::Partition split = {0, 0, 2, 1, 1, 3};  // one vertex split off each
  const double f = dq::f_measure(a, split);
  EXPECT_GT(f, 0.3);
  EXPECT_LT(f, 1.0);
}

TEST(FMeasure, AllSingletonsVsBlocks) {
  dg::Partition singles(6), blocks = {0, 0, 0, 1, 1, 1};
  std::iota(singles.begin(), singles.end(), 0);
  // No co-clustered pairs in singles → precision undefined → 0 by convention.
  EXPECT_DOUBLE_EQ(dq::f_measure(singles, blocks), 0.0);
  EXPECT_DOUBLE_EQ(dq::f_measure(singles, singles), 1.0);
}

TEST(Jaccard, KnownSmallCase) {
  const dg::Partition a = {0, 0, 1, 1};
  const dg::Partition b = {0, 0, 0, 1};
  // Pairs together in a: {01,23}; in b: {01,02,12}. a11 = |{01}| = 1,
  // a10 = 1 (23), a01 = 2 (02,12) → JI = 1/4.
  EXPECT_DOUBLE_EQ(dq::jaccard_index(a, b), 0.25);
}

TEST(Jaccard, LabelPermutationInvariant) {
  const dg::Partition a = {0, 0, 1, 1, 2, 2, 2};
  const dg::Partition b = {0, 1, 1, 1, 2, 2, 0};
  EXPECT_DOUBLE_EQ(dq::jaccard_index(a, b),
                   dq::jaccard_index(shuffled_labels(a, 2), shuffled_labels(b, 3)));
}

TEST(PairCounts, SumsToAllPairs) {
  const dg::Partition a = {0, 0, 1, 1, 2};
  const dg::Partition b = {0, 1, 1, 0, 2};
  const auto pc = dq::pair_counts(dq::Contingency(a, b));
  // a11 + a10 + a01 + a00 = C(5,2); recover a00.
  const double total = 10;
  EXPECT_LE(pc.a11 + pc.a10 + pc.a01, total);
}

TEST(Contingency, RejectsSizeMismatch) {
  EXPECT_THROW(dq::Contingency({0, 1}, {0}), dinfomap::ContractViolation);
  EXPECT_THROW(dq::Contingency({}, {}), dinfomap::ContractViolation);
}

TEST(Modularity, RingOfCliquesGroundTruthIsHigh) {
  // Two triangles joined by one edge.
  const auto g = dg::build_csr(
      {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
  const dg::Partition truth = {0, 0, 0, 1, 1, 1};
  const dg::Partition all_one = {0, 0, 0, 0, 0, 0};
  EXPECT_GT(dq::modularity(g, truth), 0.3);
  EXPECT_NEAR(dq::modularity(g, all_one), 0.0, 1e-12);
  EXPECT_GT(dq::modularity(g, truth), dq::modularity(g, all_one));
}

TEST(Modularity, SingletonsGiveNegative) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {0, 2}});
  dg::Partition singles = {0, 1, 2};
  EXPECT_LT(dq::modularity(g, singles), 0.0);
}

TEST(Modularity, SelfLoopsCountAsInternal) {
  const auto g = dg::build_csr({{0, 0, 1.0}, {0, 1, 1.0}});
  const dg::Partition one = {0, 0};
  EXPECT_NEAR(dq::modularity(g, one), 0.0, 1e-12);  // single community
}

TEST(CommunityStats, TwoTriangles) {
  const auto g = dg::build_csr(
      {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
  const auto s = dq::summarize_partition(g, {0, 0, 0, 1, 1, 1});
  EXPECT_EQ(s.num_communities, 2u);
  EXPECT_EQ(s.largest, 3u);
  EXPECT_EQ(s.smallest, 3u);
  EXPECT_DOUBLE_EQ(s.communities[0].internal_weight, 3.0);
  EXPECT_DOUBLE_EQ(s.communities[0].cut_weight, 1.0);
  EXPECT_NEAR(s.coverage, 6.0 / 7.0, 1e-12);
  // Conductance: cut 1 over min(vol 7, 2W−vol 7) = 1/7.
  EXPECT_NEAR(s.communities[0].conductance, 1.0 / 7.0, 1e-12);
}

TEST(CommunityStats, SingleCommunityFullCoverage) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {0, 2}});
  const auto s = dq::summarize_partition(g, {0, 0, 0});
  EXPECT_DOUBLE_EQ(s.coverage, 1.0);
  EXPECT_DOUBLE_EQ(s.max_conductance, 0.0);
}

TEST(CommunityStats, SelfLoopsCountInternal) {
  const auto g = dg::build_csr({{0, 0, 2.0}, {0, 1, 1.0}});
  const auto s = dq::summarize_partition(g, {0, 1});
  EXPECT_DOUBLE_EQ(s.communities[0].internal_weight, 2.0);
  EXPECT_DOUBLE_EQ(s.communities[0].cut_weight, 1.0);
}
