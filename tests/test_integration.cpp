// Cross-module integration: the full pipeline (registry dataset → partition
// → every detector → metrics → summaries) on the small Table-1 stand-ins,
// checking the consistency relations between components rather than any one
// module in isolation.
#include <gtest/gtest.h>

#include "core/dist_infomap.hpp"
#include "core/labelflow.hpp"
#include "core/louvain.hpp"
#include "core/relaxmap.hpp"
#include "core/seq_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/transform.hpp"
#include "io/datasets.hpp"
#include "quality/community_stats.hpp"
#include "quality/metrics.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace dq = dinfomap::quality;
namespace dio = dinfomap::io;

namespace {
class SmallDataset : public ::testing::TestWithParam<const char*> {};
}  // namespace

INSTANTIATE_TEST_SUITE_P(Registry, SmallDataset,
                         ::testing::Values("amazon", "dblp", "ndweb"));

TEST_P(SmallDataset, EveryDetectorProducesAConsistentClustering) {
  const auto gen = dio::load_dataset(GetParam());
  const auto g = dg::build_csr(gen.edges, gen.num_vertices);
  const auto fg = dc::make_flow_graph(g);

  const auto seq = dc::sequential_infomap(g);

  dc::DistInfomapConfig di_cfg;
  di_cfg.num_ranks = 4;
  const auto dist = dc::distributed_infomap(g, di_cfg);

  const auto lou = dc::louvain(g);
  const auto lf = dc::distributed_labelflow(g, 4);
  dc::RelaxMapConfig rm_cfg;
  rm_cfg.num_threads = 4;
  const auto rm = dc::relaxmap(g, rm_cfg);

  const struct {
    const char* name;
    const dg::Partition& assignment;
  } all[] = {{"seq", seq.assignment},       {"dist", dist.assignment},
             {"louvain", lou.assignment},   {"labelflow", lf.assignment},
             {"relaxmap", rm.assignment}};

  for (const auto& algo : all) {
    SCOPED_TRACE(algo.name);
    ASSERT_EQ(algo.assignment.size(), g.num_vertices());
    // Dense labels.
    dg::VertexId k = 0;
    const auto dense = dg::relabel_dense(algo.assignment, &k);
    EXPECT_EQ(dense, algo.assignment);
    EXPECT_GT(k, 1u);
    EXPECT_LT(k, g.num_vertices());

    // Structural summary is internally consistent.
    const auto summary = dq::summarize_partition(g, algo.assignment);
    EXPECT_EQ(summary.num_communities, k);
    EXPECT_GE(summary.coverage, 0.0);
    EXPECT_LE(summary.coverage, 1.0 + 1e-12);
    dg::VertexId covered = 0;
    for (const auto& cs : summary.communities) covered += cs.size;
    EXPECT_EQ(covered, g.num_vertices());

    // Meaningful structure found: the LFR stand-ins give high coverage; the
    // BA stand-in (ndweb) has only weak structure, so the floor is lower.
    EXPECT_GT(summary.coverage, 0.35);
    EXPECT_GT(dq::modularity(g, algo.assignment), 0.2);
  }

  // Flow-based detectors must beat or match the modularity family on the
  // flow objective, and vice versa on modularity.
  const double l_seq = dc::codelength_of_partition(fg, seq.assignment);
  const double l_lou = dc::codelength_of_partition(fg, lou.assignment);
  EXPECT_LE(l_seq, l_lou + 1e-9);
  EXPECT_GE(dq::modularity(g, lou.assignment),
            dq::modularity(g, seq.assignment) - 0.05);

  // Distributed Infomap close to sequential on the flow objective.
  EXPECT_LT(dist.codelength, l_seq * 1.15);
}

TEST(Integration, GroundTruthDatasetsAreLearnable) {
  for (const char* name : {"amazon", "dblp"}) {
    const auto gen = dio::load_dataset(name);
    ASSERT_TRUE(gen.ground_truth.has_value());
    const auto g = dg::build_csr(gen.edges, gen.num_vertices);
    const auto seq = dc::sequential_infomap(g);
    EXPECT_GT(dq::nmi(seq.assignment, *gen.ground_truth), 0.85) << name;
  }
}

TEST(Integration, MediumDatasetsSmoke) {
  // One medium stand-in end to end at p=4 — catches scaling-dependent bugs
  // the small graphs cannot.
  const auto gen = dio::load_dataset("youtube");
  const auto g = dg::build_csr(gen.edges, gen.num_vertices);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 4;
  const auto dist = dc::distributed_infomap(g, cfg);
  const auto fg = dc::make_flow_graph(g);
  EXPECT_NEAR(dist.codelength,
              dc::codelength_of_partition(fg, dist.assignment), 1e-9);
  EXPECT_LT(dist.codelength, dist.singleton_codelength);
}
