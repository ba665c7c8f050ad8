#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>

#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace du = dinfomap::util;

TEST(Check, RequireThrowsContractViolation) {
  EXPECT_THROW(DINFOMAP_REQUIRE(1 == 2), dinfomap::ContractViolation);
  EXPECT_NO_THROW(DINFOMAP_REQUIRE(1 == 1));
}

TEST(Check, RequireMsgCarriesMessage) {
  try {
    DINFOMAP_REQUIRE_MSG(false, "ctx " << 42);
    FAIL() << "should have thrown";
  } catch (const dinfomap::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

TEST(Random, SplitMix64KnownSequenceIsDeterministic) {
  du::SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Random, XoshiroDifferentSeedsDiffer) {
  du::Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Random, BoundedStaysInRange) {
  du::Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Random, BoundedZeroReturnsZero) {
  du::Xoshiro256 rng(7);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Random, UniformInUnitInterval) {
  du::Xoshiro256 rng(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, BoundedIsRoughlyUniform) {
  du::Xoshiro256 rng(5);
  std::vector<int> hist(10, 0);
  for (int i = 0; i < 100000; ++i) ++hist[rng.bounded(10)];
  for (int count : hist) EXPECT_NEAR(count, 10000, 600);
}

TEST(Random, DeriveSeedSeparatesStreams) {
  EXPECT_NE(du::derive_seed(1, 0), du::derive_seed(1, 1));
  EXPECT_NE(du::derive_seed(1, 0), du::derive_seed(2, 0));
  EXPECT_EQ(du::derive_seed(1, 0), du::derive_seed(1, 0));
}

TEST(Random, ShuffleIsPermutationAndSeedStable) {
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  du::Xoshiro256 rng1(3), rng2(3);
  auto a = v, b = v;
  du::deterministic_shuffle(a, rng1);
  du::deterministic_shuffle(b, rng2);
  EXPECT_EQ(a, b);
  std::sort(b.begin(), b.end());
  EXPECT_EQ(b, v);
  EXPECT_NE(a, v);  // astronomically unlikely to be identity
}

TEST(Stats, SummaryBasics) {
  const auto s = du::summarize({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.imbalance, 4 / 2.5);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, SummaryEmptyAndSingle) {
  EXPECT_EQ(du::summarize({}).count, 0u);
  const auto s = du::summarize({5});
  EXPECT_DOUBLE_EQ(s.median, 5);
  EXPECT_DOUBLE_EQ(s.stddev, 0);
  EXPECT_DOUBLE_EQ(s.imbalance, 1.0);
}

TEST(Stats, SummarizeCountsMatchesDoubles) {
  const auto a = du::summarize_counts({10, 20, 30});
  const auto b = du::summarize({10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

TEST(Stats, LogHistogramBuckets) {
  du::LogHistogram h;
  h.add(0);      // zero bucket
  h.add(0.5);    // zero bucket
  h.add(5);      // [1,10)
  h.add(50);     // [10,100)
  h.add(500);    // [100,1000)
  h.add(999);    // [100,1000)
  const auto& b = h.buckets();
  ASSERT_GE(b.size(), 4u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 1u);
  EXPECT_EQ(b[3], 2u);
}

TEST(Stats, WithCommas) {
  EXPECT_EQ(du::with_commas(0), "0");
  EXPECT_EQ(du::with_commas(999), "999");
  EXPECT_EQ(du::with_commas(1000), "1,000");
  EXPECT_EQ(du::with_commas(1234567), "1,234,567");
  EXPECT_EQ(du::with_commas(1000000000ull), "1,000,000,000");
}

TEST(Timer, MeasuresElapsed) {
  du::Timer t;
  // dlint:allow(sleep-sync): a timer test must spend real wall time
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
  t.restart();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(Timer, PhaseTimerAccumulates) {
  du::PhaseTimer pt;
  pt.add("a", 1.0);
  pt.add("a", 0.5);
  pt.add("b", 2.0);
  EXPECT_DOUBLE_EQ(pt.total("a"), 1.5);
  EXPECT_DOUBLE_EQ(pt.total("b"), 2.0);
  EXPECT_DOUBLE_EQ(pt.total("missing"), 0.0);
  pt.clear();
  EXPECT_DOUBLE_EQ(pt.total("a"), 0.0);
}

TEST(Timer, PhaseTimerPhasesSortedByName) {
  du::PhaseTimer pt;
  pt.add("swap", 3.0);
  pt.add("find", 1.0);
  pt.add("broadcast", 2.0);
  const auto rows = pt.phases();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "broadcast");
  EXPECT_EQ(rows[1].first, "find");
  EXPECT_EQ(rows[2].first, "swap");
  EXPECT_DOUBLE_EQ(rows[1].second, 1.0);
}

TEST(Timer, ScopedPhaseRecords) {
  du::PhaseTimer pt;
  {
    du::ScopedPhase sp(pt, "scope");
    // dlint:allow(sleep-sync): a timer test must spend real wall time
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(pt.total("scope"), 0.005);
}

TEST(Logging, ClockStartsWithTheProcessNotTheFirstLine) {
  // The first line of a run (in practice, post-run watchdog findings) must
  // carry the time since start, not a stamp of zero.
  // dlint:allow(sleep-sync): the stamp must measure real wall time
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  testing::internal::CaptureStderr();
  du::log_line(du::LogLevel::kError, "first line of the process");
  const std::string line = testing::internal::GetCapturedStderr();
  double stamp = -1;
  ASSERT_EQ(std::sscanf(line.c_str(), "[%lf]", &stamp), 1) << line;
  EXPECT_GE(stamp, 0.05) << line;
}
