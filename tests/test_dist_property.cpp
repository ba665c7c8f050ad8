// Property sweep: the distributed Infomap invariants across graph families ×
// rank counts, plus failure injection on corrupted inputs.
#include <gtest/gtest.h>

#include <tuple>

#include "core/dist_infomap.hpp"
#include "core/flowgraph.hpp"
#include "core/seq_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "util/check.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;

namespace {

enum class Family { kEr, kBa, kRmat, kSbm, kLfr, kRing };

const char* family_name(Family f) {
  switch (f) {
    case Family::kEr: return "er";
    case Family::kBa: return "ba";
    case Family::kRmat: return "rmat";
    case Family::kSbm: return "sbm";
    case Family::kLfr: return "lfr";
    case Family::kRing: return "ring";
  }
  return "?";
}

dg::Csr make_graph(Family f) {
  switch (f) {
    case Family::kEr: {
      const auto g = gen::erdos_renyi(300, 1200, 5);
      return dg::build_csr(g.edges, g.num_vertices);
    }
    case Family::kBa: {
      const auto g = gen::barabasi_albert(400, 2, 5);
      return dg::build_csr(g.edges, g.num_vertices);
    }
    case Family::kRmat: {
      const auto g = gen::rmat(9, 6, 0.57, 0.19, 0.19, 5);
      return dg::build_csr(g.edges, g.num_vertices);
    }
    case Family::kSbm: {
      const auto g = gen::sbm(300, 6, 0.2, 0.01, 5);
      return dg::build_csr(g.edges, g.num_vertices);
    }
    case Family::kLfr: {
      gen::LfrLiteParams p;
      p.n = 400;
      const auto g = gen::lfr_lite(p, 5);
      return dg::build_csr(g.edges, g.num_vertices);
    }
    case Family::kRing: {
      const auto g = gen::ring_of_cliques(12, 5, 0);
      return dg::build_csr(g.edges, g.num_vertices);
    }
  }
  throw std::logic_error("unreachable");
}

class DistSweep : public ::testing::TestWithParam<std::tuple<Family, int>> {};

std::string sweep_name(const ::testing::TestParamInfo<DistSweep::ParamType>& info) {
  return std::string(family_name(std::get<0>(info.param))) + "_p" +
         std::to_string(std::get<1>(info.param));
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    FamiliesByRanks, DistSweep,
    ::testing::Combine(::testing::Values(Family::kEr, Family::kBa, Family::kRmat,
                                         Family::kSbm, Family::kLfr, Family::kRing),
                       ::testing::Values(1, 3, 4)),
    sweep_name);

TEST_P(DistSweep, CoreInvariantsHold) {
  const auto [family, p] = GetParam();
  const auto g = make_graph(family);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  const auto result = dc::distributed_infomap(g, cfg);

  // 1. Assignment covers all vertices with dense labels.
  ASSERT_EQ(result.assignment.size(), g.num_vertices());
  const dg::VertexId k = result.num_modules();
  std::vector<bool> seen(k, false);
  for (auto m : result.assignment) {
    ASSERT_LT(m, k);
    seen[m] = true;
  }
  for (dg::VertexId m = 0; m < k; ++m) EXPECT_TRUE(seen[m]) << "gap at " << m;

  // 2. Reported L is the exact objective of the assignment.
  const auto fg = dc::make_flow_graph(g);
  EXPECT_NEAR(result.codelength,
              dc::codelength_of_partition(fg, result.assignment), 1e-9);

  // 3. No worse than the trivial all-singletons partition.
  EXPECT_LE(result.codelength, result.singleton_codelength + 1e-9);

  // 4. No level ends worse than it began: a synchronous round may overshoot
  // on stale remote statistics, and a level whose L ends above its start is
  // undone back to its singletons.
  for (const auto& row : result.trace)
    EXPECT_LE(row.codelength_after, row.codelength_before)
        << "level " << row.level;

  // 5. Communication happened iff p > 1.
  std::uint64_t bytes = 0;
  for (const auto& c : result.comm_counters) bytes += c.total_bytes();
  if (p == 1)
    EXPECT_EQ(bytes, 0u);
  else
    EXPECT_GT(bytes, 0u);
}

TEST_P(DistSweep, ExactHubVariantKeepsInvariants) {
  const auto [family, p] = GetParam();
  if (p == 1) GTEST_SKIP() << "hub consensus is trivial at p=1";
  const auto g = make_graph(family);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  cfg.exact_hub_moves = true;
  const auto result = dc::distributed_infomap(g, cfg);
  const auto fg = dc::make_flow_graph(g);
  EXPECT_NEAR(result.codelength,
              dc::codelength_of_partition(fg, result.assignment), 1e-9);
  EXPECT_LE(result.codelength, result.singleton_codelength + 1e-9);
}

TEST_P(DistSweep, DeterministicRepeat) {
  const auto [family, p] = GetParam();
  if (p == 1) GTEST_SKIP() << "covered by the p=3/4 cases";
  const auto g = make_graph(family);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  const auto a = dc::distributed_infomap(g, cfg);
  const auto b = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.stage1_rounds, b.stage1_rounds);
  EXPECT_DOUBLE_EQ(a.codelength, b.codelength);
}

TEST(DistChaos, DeliveryTimingDoesNotChangeResults) {
  // The protocol is bulk-synchronous: a fault plan that drops, duplicates
  // and reorders frames changes when and in what order messages arrive, and
  // must not change a single bit of the outcome.
  const auto gg = gen::lfr_lite({}, 47);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  dc::DistInfomapConfig calm;
  calm.num_ranks = 4;
  auto chaotic = calm;
  chaotic.faults.drop = 0.02;
  chaotic.faults.duplicate = 0.02;
  chaotic.faults.reorder = 0.05;
  chaotic.faults.seed = 50;
  const auto a = dc::distributed_infomap(g, calm);
  const auto b = dc::distributed_infomap(g, chaotic);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.codelength, b.codelength);
  EXPECT_EQ(a.stage1_rounds, b.stage1_rounds);
  dinfomap::comm::FaultCounters injected;
  for (const auto& f : b.report.faults_injected) injected += f;
  EXPECT_GT(injected.total(), 0u);
}

TEST(DistFailureInjection, CorruptedPartitionRejected) {
  const auto gg = gen::ring_of_cliques(6, 4, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 3;

  // An arc on a rank that does not exist.
  auto part = dinfomap::partition::make_delegate(
      g, 3, dc::resolve_degree_threshold(g, cfg));
  part.arc_rank.back() = 3;
  EXPECT_THROW(dc::distributed_infomap(g, part, cfg),
               dinfomap::ContractViolation);
}

TEST(DistFailureInjection, MisplacedArcRejected) {
  const auto gg = gen::ring_of_cliques(6, 4, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 2;
  auto part = dinfomap::partition::make_delegate(
      g, 2, dc::resolve_degree_threshold(g, cfg));
  // Vertex 0 is low-degree and owned by rank 0; move one of its arcs away.
  ASSERT_FALSE(part.delegate(0));
  part.arc_rank[g.offsets()[0]] = 1;
  EXPECT_THROW(dc::distributed_infomap(g, part, cfg),
               dinfomap::ContractViolation);
}

TEST(DistFailureInjection, PartitionForLargerGraphRejected) {
  // A partition built over the same edges plus 64 isolated ids: its
  // per-vertex arrays outrun the graph, whose result arrays are sized from
  // the graph.
  const auto gg = gen::ring_of_cliques(6, 4, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto wider = dg::build_csr(gg.edges, gg.num_vertices + 64);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 2;
  const auto part = dinfomap::partition::make_delegate(
      wider, 2, dc::resolve_degree_threshold(wider, cfg));
  EXPECT_THROW(dc::distributed_infomap(g, part, cfg),
               dinfomap::ContractViolation);
}

TEST(DistFailureInjection, NonRoundRobinOwnershipRejected) {
  const auto gg = gen::ring_of_cliques(6, 4, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 2;
  auto part = dinfomap::partition::make_oned_balanced(g, 2);
  EXPECT_THROW(dc::distributed_infomap(g, part, cfg),
               dinfomap::ContractViolation);
}

TEST(DistFailureInjection, SelfLoopInputRejected) {
  const auto g = dg::build_csr({{0, 0, 1.0}, {0, 1, 1.0}, {1, 2, 1.0}});
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 2;
  EXPECT_THROW(dc::distributed_infomap(g, cfg), dinfomap::ContractViolation);
}

