// Tests of the hot-path data structures (SparseAccumulator, FlatMap,
// PlogpMemo) and the determinism contract of the rewritten move-search
// paths: bit-identical results across repeats and under seeded fault plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/dist_infomap.hpp"
#include "core/mapequation.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "util/flat_map.hpp"
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

// --- FlatMap ----------------------------------------------------------------

TEST(FlatMap, InsertFindUpdate) {
  du::FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), m.end());
  m[7] = 1;
  m[7] += 2;
  auto [it, inserted] = m.emplace(9, 5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, 5);
  auto [it2, inserted2] = m.emplace(9, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 5);
  ASSERT_NE(m.find(7), m.end());
  EXPECT_EQ(m.find(7)->second, 3);
  EXPECT_EQ(m.count(7), 1u);
  EXPECT_EQ(m.count(8), 0u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, ClearKeepsStorage) {
  du::FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = static_cast<int>(k);
  const std::size_t cap = m.capacity();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.find(50), m.end());
  m[50] = 1;
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, GrowthPreservesAllEntries) {
  du::FlatMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kN = 5000;
  for (std::uint64_t k = 0; k < kN; ++k) m[k * 977 + 13] = k;
  ASSERT_EQ(m.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    auto it = m.find(k * 977 + 13);
    ASSERT_NE(it, m.end()) << "key " << k * 977 + 13;
    EXPECT_EQ(it->second, k);
  }
  // Load factor stays below 7/8.
  EXPECT_GE(m.capacity() * 7, m.size() * 8);
}

TEST(FlatMap, CollisionHeavyKeysStillResolve) {
  // Craft keys that land in the same initial slot of a small table: same top
  // bits of mix(key). With capacity 16 the probe uses the top 4 bits, so
  // collect keys whose mixed top-16 bits match — they collide at every
  // capacity up to 65536 slots.
  using M = du::FlatMap<std::uint64_t, std::uint64_t>;
  const std::uint64_t want = M::mix(1) >> 48;
  std::vector<std::uint64_t> colliders;
  for (std::uint64_t k = 1; colliders.size() < 24 && k < 40'000'000; ++k) {
    if ((M::mix(k) >> 48) == want) colliders.push_back(k);
  }
  ASSERT_GE(colliders.size(), 12u) << "collision search too narrow";
  M m;
  for (std::size_t i = 0; i < colliders.size(); ++i) m[colliders[i]] = i;
  ASSERT_EQ(m.size(), colliders.size());
  for (std::size_t i = 0; i < colliders.size(); ++i) {
    auto it = m.find(colliders[i]);
    ASSERT_NE(it, m.end());
    EXPECT_EQ(it->second, i);
  }
  // Absent keys from the same bucket must probe to not-found, not loop.
  for (std::uint64_t k = 40'000'001; k < 40'000'032; ++k)
    EXPECT_EQ(m.count(k), 0u);
}

TEST(FlatMap, IterationVisitsEveryEntryOnce) {
  du::FlatMap<std::uint32_t, int> m;
  for (std::uint32_t k = 0; k < 300; ++k) m[k * 3 + 1] = 1;
  std::size_t visited = 0;
  std::uint64_t key_sum = 0;
  for (auto it = m.begin(); it != m.end(); ++it) {
    ++visited;
    key_sum += it->first;
  }
  EXPECT_EQ(visited, 300u);
  std::uint64_t want = 0;
  for (std::uint32_t k = 0; k < 300; ++k) want += k * 3 + 1;
  EXPECT_EQ(key_sum, want);
}

TEST(FlatMap, AgreesWithUnorderedMapUnderRandomWorkload) {
  du::FlatMap<std::uint64_t, double> m;
  std::unordered_map<std::uint64_t, double> ref;
  du::Xoshiro256 rng(77);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t k = rng.bounded(4096);
    if (rng.uniform() < 0.7) {
      m[k] += 1.0;
      ref[k] += 1.0;
    } else {
      auto it = m.find(k);
      auto rit = ref.find(k);
      ASSERT_EQ(it == m.end(), rit == ref.end()) << "key " << k;
      if (rit != ref.end()) {
        EXPECT_DOUBLE_EQ(it->second, rit->second);
      }
    }
  }
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) EXPECT_DOUBLE_EQ(m.find(k)->second, v);
}

TEST(FlatMap, ConfigurableLoadFactorIsHonored) {
  // A denser table (95%) grows later than the default 7/8; a sparser one
  // (50%) grows earlier. Contents are unaffected either way.
  du::FlatMap<std::uint64_t, int> dense;
  dense.set_max_load(95, 100);
  du::FlatMap<std::uint64_t, int> sparse;
  sparse.set_max_load(1, 2);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    dense[k * 31 + 7] = static_cast<int>(k);
    sparse[k * 31 + 7] = static_cast<int>(k);
  }
  EXPECT_GE(dense.capacity() * 95, dense.size() * 100);
  EXPECT_GE(sparse.capacity(), sparse.size() * 2);
  EXPECT_LT(dense.capacity(), sparse.capacity());
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_NE(dense.find(k * 31 + 7), dense.end());
    EXPECT_EQ(dense.find(k * 31 + 7)->second, static_cast<int>(k));
    ASSERT_NE(sparse.find(k * 31 + 7), sparse.end());
    EXPECT_EQ(sparse.find(k * 31 + 7)->second, static_cast<int>(k));
  }
  // Degenerate ratios are ignored, not applied.
  du::FlatMap<std::uint64_t, int> bad;
  bad.set_max_load(0, 10);
  bad.set_max_load(10, 10);
  bad.set_max_load(12, 10);
  for (std::uint64_t k = 0; k < 100; ++k) bad[k] = 1;
  EXPECT_GE(bad.capacity() * 7, bad.size() * 8);  // still the 7/8 default
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
