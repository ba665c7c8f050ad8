#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>

#include "chunk_invariance.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace dg = dinfomap::graph;
using dinfomap::testing::build_every_chunk_count;

namespace {
/// Triangle 0-1-2 plus pendant 3 attached to 0.
dg::Csr triangle_plus_pendant() {
  return build_every_chunk_count({{0, 1}, {1, 2}, {0, 2}, {0, 3}});
}

std::uint64_t bits(double w) { return std::bit_cast<std::uint64_t>(w); }

/// `copies` rounds over `pairs` vertex pairs {2i, 2i+1}; each round visits
/// the pairs in a fresh shuffled order and flips the orientation, so the
/// copies of one pair are spread through the list. Round r has weight
/// weight(r, pair).
template <class WeightFn>
dg::EdgeList spread_duplicates(dg::VertexId pairs, int copies, WeightFn weight) {
  dinfomap::util::Xoshiro256 rng(7);
  std::vector<dg::VertexId> order(pairs);
  for (dg::VertexId p = 0; p < pairs; ++p) order[p] = p;
  dg::EdgeList edges;
  for (int r = 0; r < copies; ++r) {
    dinfomap::util::deterministic_shuffle(order, rng);
    for (const dg::VertexId p : order) {
      const dg::VertexId a = 2 * p, b = 2 * p + 1;
      edges.push_back(r % 2 == 0 ? dg::Edge{a, b, weight(r, p)}
                                 : dg::Edge{b, a, weight(r, p)});
    }
  }
  return edges;
}

/// build_csr's contract spelled out with ordered maps: pairs keep or sum
/// their weights in input order, rows are sorted by target.
struct ReferenceCsr {
  std::vector<dg::EdgeIndex> offsets{0};
  std::vector<dg::Neighbor> adjacency;
  std::vector<dg::Weight> self_weight;
};

ReferenceCsr reference_csr(const dg::EdgeList& edges, dg::VertexId n,
                           const dg::BuildOptions& opt) {
  ReferenceCsr ref;
  ref.self_weight.assign(n, 0.0);
  std::map<std::pair<dg::VertexId, dg::VertexId>, dg::Weight> merged;
  for (const dg::Edge& e : edges) {
    if (e.u == e.v) {
      if (!opt.drop_self_loops) ref.self_weight[e.u] += e.w;
      continue;
    }
    const auto [it, fresh] = merged.try_emplace(std::minmax(e.u, e.v), e.w);
    if (!fresh && opt.combine_duplicates) it->second += e.w;
  }
  std::vector<std::map<dg::VertexId, dg::Weight>> rows(n);
  for (const auto& [key, w] : merged) {
    rows[key.first][key.second] = w;
    rows[key.second][key.first] = w;
  }
  for (const auto& row : rows) {
    for (const auto& [target, w] : row) ref.adjacency.push_back({target, w});
    ref.offsets.push_back(ref.adjacency.size());
  }
  return ref;
}
}  // namespace

TEST(Builder, BasicCsrShape) {
  const auto g = triangle_plus_pendant();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.num_arcs(), 8u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_TRUE(g.validate());
}

TEST(Builder, AdjacencySortedAndSymmetric) {
  const auto g = triangle_plus_pendant();
  const auto nb0 = g.neighbors(0);
  ASSERT_EQ(nb0.size(), 3u);
  EXPECT_EQ(nb0[0].target, 1u);
  EXPECT_EQ(nb0[1].target, 2u);
  EXPECT_EQ(nb0[2].target, 3u);
}

TEST(Builder, DuplicateEdgesCombineWeights) {
  const auto g = build_every_chunk_count({{0, 1, 1.0}, {1, 0, 2.0}, {0, 1, 0.5}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 3.5);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 3.5);
  EXPECT_TRUE(g.validate());
}

TEST(Builder, DuplicateKeepFirstWhenCombineOff) {
  dg::BuildOptions opt;
  opt.combine_duplicates = false;
  const auto g = build_every_chunk_count({{0, 1, 1.0}, {1, 0, 2.0}}, 0, opt);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 1.0);
}

TEST(Builder, SelfLoopsGoToSelfWeight) {
  const auto g = build_every_chunk_count({{0, 0, 2.0}, {0, 1, 1.0}});
  EXPECT_DOUBLE_EQ(g.self_weight(0), 2.0);
  EXPECT_EQ(g.degree(0), 1u);  // self-loop not in adjacency
  EXPECT_DOUBLE_EQ(g.total_link_weight(), 1.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 3.0);
}

TEST(Builder, SelfLoopsDroppedOnRequest) {
  dg::BuildOptions opt;
  opt.drop_self_loops = true;
  const auto g = build_every_chunk_count({{0, 0, 2.0}, {0, 1, 1.0}}, 0, opt);
  EXPECT_DOUBLE_EQ(g.self_weight(0), 0.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 1.0);
}

TEST(Builder, ExplicitVertexCountKeepsIsolated) {
  const auto g = build_every_chunk_count({{0, 1}}, 5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.degree(4), 0u);
}

TEST(Builder, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(build_every_chunk_count({{0, 7}}, 3), dinfomap::ContractViolation);
}

TEST(Builder, RejectsNonPositiveWeight) {
  EXPECT_THROW(build_every_chunk_count({{0, 1, 0.0}}), dinfomap::ContractViolation);
  EXPECT_THROW(build_every_chunk_count({{0, 1, -1.0}}), dinfomap::ContractViolation);
  EXPECT_THROW(build_every_chunk_count({{0, 1, std::numeric_limits<double>::infinity()}}),
               dinfomap::ContractViolation);
  EXPECT_THROW(build_every_chunk_count({{0, 1, std::numeric_limits<double>::quiet_NaN()}}),
               dinfomap::ContractViolation);
}

TEST(Builder, KeepFirstIsInputOrder) {
  // Weight 1000p + r + 1 names pair p's copy r, so the kept weight tells
  // which copy survived.
  const dg::EdgeList edges = spread_duplicates(
      30, 40, [](int r, dg::VertexId p) { return 1000.0 * p + r + 1; });
  dg::BuildOptions opt;
  opt.combine_duplicates = false;
  const auto g = build_every_chunk_count(edges, 0, opt);
  ASSERT_EQ(g.num_edges(), 30u);
  for (dg::VertexId p = 0; p < 30; ++p) {
    ASSERT_EQ(g.degree(2 * p), 1u);
    EXPECT_EQ(g.neighbors(2 * p)[0].weight, 1000.0 * p + 1) << "pair " << p;
    EXPECT_EQ(g.neighbors(2 * p + 1)[0].weight, 1000.0 * p + 1) << "pair " << p;
  }
}

TEST(Builder, DuplicateSumsInInputOrder) {
  const double w[3] = {0.1, 0.2, 0.3};
  const dg::EdgeList edges =
      spread_duplicates(30, 3, [&](int r, dg::VertexId) { return w[r]; });
  const double in_order = (0.1 + 0.2) + 0.3;
  ASSERT_NE(bits(in_order), bits(0.1 + (0.2 + 0.3)));  // order is visible
  const auto g = build_every_chunk_count(edges);
  ASSERT_EQ(g.num_edges(), 30u);
  for (dg::VertexId p = 0; p < 30; ++p) {
    EXPECT_EQ(bits(g.neighbors(2 * p)[0].weight), bits(in_order)) << "pair " << p;
    EXPECT_EQ(bits(g.neighbors(2 * p + 1)[0].weight), bits(in_order)) << "pair " << p;
  }
}

TEST(Builder, MatchesBruteForceReference) {
  dinfomap::util::Xoshiro256 rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    // The top three ids never appear in an edge: isolated under explicit n.
    const auto n = static_cast<dg::VertexId>(4 + rng.bounded(60));
    const auto vertex = [&] { return static_cast<dg::VertexId>(rng.bounded(n - 3)); };
    dg::EdgeList edges(rng.bounded(400));
    for (dg::Edge& e : edges) {
      e = {vertex(), vertex(), 0.01 + 3.0 * rng.uniform()};
      if (rng.bounded(10) == 0) e.v = e.u;  // extra self-loops
    }
    for (const bool combine : {true, false}) {
      for (const bool drop_loops : {false, true}) {
        dg::BuildOptions opt;
        opt.combine_duplicates = combine;
        opt.drop_self_loops = drop_loops;
        const dg::Csr g = build_every_chunk_count(edges, n, opt);
        const ReferenceCsr ref = reference_csr(edges, n, opt);
        SCOPED_TRACE(::testing::Message() << "trial " << trial << " combine "
                                          << combine << " drop " << drop_loops);
        ASSERT_EQ(g.offsets(), ref.offsets);
        for (std::size_t i = 0; i < ref.adjacency.size(); ++i) {
          ASSERT_EQ(g.adjacency()[i].target, ref.adjacency[i].target);
          ASSERT_EQ(bits(g.adjacency()[i].weight), bits(ref.adjacency[i].weight));
        }
        for (dg::VertexId v = 0; v < n; ++v)
          ASSERT_EQ(bits(g.self_weight(v)), bits(ref.self_weight[v]));
        EXPECT_TRUE(g.validate());
      }
    }
  }
}

TEST(Builder, SortByEndpointsIsStable) {
  dg::EdgeList edges = {{2, 1, 1}, {0, 3, 2}, {2, 1, 3}, {0, 1, 4}, {2, 0, 5},
                        {0, 3, 6}, {1, 1, 7}, {2, 1, 8}};
  dg::EdgeList expected = edges;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const dg::Edge& a, const dg::Edge& b) {
                     return std::pair(a.u, a.v) < std::pair(b.u, b.v);
                   });
  dg::sort_by_endpoints(edges, 4);
  EXPECT_EQ(edges, expected);
}

TEST(Csr, WeightedDegreeAndTotals) {
  const auto g = dg::build_csr({{0, 1, 2.0}, {1, 2, 3.0}});
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 5.0);
  EXPECT_DOUBLE_EQ(g.total_link_weight(), 5.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
}

TEST(Csr, EmptyGraphRejectedByCtor) {
  EXPECT_THROW(dg::Csr({}, {}, {}), dinfomap::ContractViolation);
}

TEST(Stats, DegreeStatsFindHubs) {
  // Star: vertex 0 connects to 1..9.
  dg::EdgeList edges;
  for (dg::VertexId v = 1; v < 10; ++v) edges.push_back({0, v});
  const auto g = dg::build_csr(edges);
  const auto s = dg::degree_stats(g, 4);
  EXPECT_EQ(s.max_degree, 9u);
  EXPECT_EQ(s.hubs_above, 1u);
  EXPECT_DOUBLE_EQ(s.hub_arc_fraction, 0.5);  // 9 of 18 arcs touch the hub
  EXPECT_NEAR(s.mean_degree, 1.8, 1e-12);
}

TEST(Stats, DegreeHistogramCapsAtLastBucket) {
  dg::EdgeList edges;
  for (dg::VertexId v = 1; v < 10; ++v) edges.push_back({0, v});
  const auto g = dg::build_csr(edges);
  const auto hist = dg::degree_histogram(g, 4);
  ASSERT_EQ(hist.size(), 5u);
  EXPECT_EQ(hist[1], 9u);  // nine leaves
  EXPECT_EQ(hist[4], 1u);  // hub capped into bucket 4
}
