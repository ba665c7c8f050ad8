// Tests of the hot-path data structures (SparseAccumulator, PlogpMemo) and
// the determinism contract of the rewritten move-search paths: bit-identical
// results across repeats and under seeded fault plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/dist_infomap.hpp"
#include "core/mapequation.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "util/random.hpp"
#include "util/sparse_accumulator.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace du = dinfomap::util;
namespace gen = dinfomap::graph::gen;

// --- SparseAccumulator ------------------------------------------------------

TEST(SparseAccumulator, AccumulatesAndIteratesInFirstTouchOrder) {
  du::SparseAccumulator<std::uint32_t, double> acc(16);
  acc[5] += 1.0;
  acc[2] += 0.5;
  acc[5] += 2.0;
  acc[9] += 0.25;
  ASSERT_EQ(acc.size(), 3u);
  EXPECT_EQ(acc.keys(), (std::vector<std::uint32_t>{5, 2, 9}));
  EXPECT_DOUBLE_EQ(*acc.find(5), 3.0);
  EXPECT_DOUBLE_EQ(*acc.find(2), 0.5);
  EXPECT_DOUBLE_EQ(*acc.find(9), 0.25);
}

TEST(SparseAccumulator, ClearForgetsWithoutTouchingStorage) {
  du::SparseAccumulator<std::uint32_t, double> acc(8);
  acc[3] = 7.0;
  acc.clear();
  EXPECT_TRUE(acc.empty());
  EXPECT_FALSE(acc.contains(3));
  EXPECT_EQ(acc.find(3), nullptr);
  // Slots lazily reinitialize to V{} after a clear — stale values must not
  // leak through the epoch bump.
  EXPECT_DOUBLE_EQ(acc[3], 0.0);
  EXPECT_EQ(acc.capacity(), 8u);
}

TEST(SparseAccumulator, ValueOrReplacesDoubleLookup) {
  du::SparseAccumulator<std::uint32_t, double> acc(4);
  acc[1] = 2.5;
  EXPECT_DOUBLE_EQ(acc.value_or(1, -1.0), 2.5);
  EXPECT_DOUBLE_EQ(acc.value_or(2, -1.0), -1.0);
}

TEST(SparseAccumulator, ReuseAcrossManyEpochsMatchesFreshMap) {
  // Heavy reuse (the per-vertex gather pattern): the accumulator must agree
  // with a fresh unordered_map on every epoch.
  du::SparseAccumulator<std::uint32_t, double> acc(64);
  du::Xoshiro256 rng(123);
  for (int epoch = 0; epoch < 200; ++epoch) {
    acc.clear();
    std::unordered_map<std::uint32_t, double> ref;
    for (int i = 0; i < 40; ++i) {
      const auto k = static_cast<std::uint32_t>(rng.bounded(64));
      const double w = rng.uniform();
      acc[k] += w;
      ref[k] += w;
    }
    ASSERT_EQ(acc.size(), ref.size());
    for (const auto& [k, v] : ref) EXPECT_DOUBLE_EQ(*acc.find(k), v);
  }
}

TEST(SparseAccumulator, ResetGrowsCapacity) {
  du::SparseAccumulator<std::uint32_t, int> acc(4);
  acc[3] = 1;
  acc.reset(32);
  EXPECT_TRUE(acc.empty());
  EXPECT_GE(acc.capacity(), 32u);
  acc[31] = 9;
  EXPECT_EQ(*acc.find(31), 9);
}

TEST(SparseAccumulator, StructValuesDefaultInitialize) {
  struct Entry {
    double flow = 0;
    std::uint8_t boundary = 0;
  };
  du::SparseAccumulator<std::uint64_t, Entry> acc(8);
  acc[2].flow += 1.5;
  acc[2].boundary = 1;
  acc.clear();
  EXPECT_DOUBLE_EQ(acc[2].flow, 0.0);
  EXPECT_EQ(acc[2].boundary, 0);
}

// --- PlogpMemo --------------------------------------------------------------

TEST(PlogpMemo, BitIdenticalToPlainPlogp) {
  dc::PlogpMemo memo;
  du::Xoshiro256 rng(5);
  for (int i = 0; i < 100000; ++i) {
    // Mix fresh values with repeats (memo hits) across the plausible flow
    // range, including subnormal-adjacent and zero.
    const double x = (i % 3 == 0) ? rng.uniform() * 1e-3 : rng.uniform();
    EXPECT_EQ(memo(x), dc::plogp(x)) << "x=" << x;
    EXPECT_EQ(memo(x), dc::plogp(x)) << "repeat x=" << x;
  }
  EXPECT_EQ(memo(0.0), 0.0);
  EXPECT_EQ(memo(1.0), dc::plogp(1.0));
}

TEST(PlogpMemo, EvaluateMoveOverloadsAgreeBitwise) {
  dc::PlogpMemo memo;
  du::Xoshiro256 rng(17);
  for (int i = 0; i < 5000; ++i) {
    dc::MoveDelta d;
    d.p_u = rng.uniform() * 0.05;
    d.f_u = rng.uniform() * 0.04;
    d.f_to_old = rng.uniform() * 0.01;
    d.f_to_new = rng.uniform() * 0.01;
    d.old_stats = {rng.uniform(), rng.uniform() * 0.1, 1 + rng.bounded(50)};
    d.new_stats = {rng.uniform(), rng.uniform() * 0.1, 1 + rng.bounded(50)};
    d.q_total = rng.uniform();
    const auto plain = dc::evaluate_move(d);
    const auto memoized = dc::evaluate_move(d, memo);
    EXPECT_EQ(plain.delta_codelength, memoized.delta_codelength) << "i=" << i;
  }
}

// --- Determinism regression over the rewritten hot paths --------------------

TEST(HotpathDeterminism, DistributedChaosMemoOnOffBitIdentical) {
  // On ≥4 ranks, the flat-accumulator + memoized hot path must give the same
  // partition and codelength under two different seeded fault plans, which
  // perturb delivery order and timing differently.
  const auto gg = gen::lfr_lite({}, 29);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  for (int p : {4, 5}) {
    dc::DistInfomapConfig cfg;
    cfg.num_ranks = p;
    cfg.faults.reorder = 0.05;
    cfg.faults.duplicate = 0.02;
    cfg.faults.seed = 40;
    const auto a = dc::distributed_infomap(g, cfg);
    cfg.faults.seed = 90;  // different delivery, same answer required
    const auto b = dc::distributed_infomap(g, cfg);
    EXPECT_EQ(a.assignment, b.assignment) << "p=" << p;
    EXPECT_DOUBLE_EQ(a.codelength, b.codelength) << "p=" << p;
    for (const auto* run : {&a, &b}) {
      dinfomap::comm::FaultCounters injected;
      for (const auto& f : run->report.faults_injected) injected += f;
      EXPECT_GT(injected.total(), 0u) << "p=" << p;
    }
  }
}

TEST(HotpathDeterminism, DistributedRepeatBitIdentical) {
  const auto gg = gen::sbm(300, 10, 0.2, 0.01, 13);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 4;
  const auto a = dc::distributed_infomap(g, cfg);
  const auto b = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.codelength, b.codelength);
}
