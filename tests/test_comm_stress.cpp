// Stress tests of the comm substrate: randomized message storms, mixed
// collective sequences, and both again under seeded fault plans that drop,
// duplicate, reorder and corrupt frames.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/runtime.hpp"
#include "util/random.hpp"

namespace dc = dinfomap::comm;
namespace du = dinfomap::util;

namespace {
constexpr int kStormTag = 7;

/// Every fault kind at once: delivery order and timing differ from the
/// fault-free run, so correct results cannot depend on them.
dc::Runtime::Options faulty_delivery(std::uint64_t seed) {
  dc::Runtime::Options options;
  options.faults.drop = 0.05;
  options.faults.duplicate = 0.05;
  options.faults.reorder = 0.05;
  options.faults.corrupt = 0.05;
  options.faults.seed = seed;
  return options;
}

std::uint64_t faults_injected(const dc::Runtime::JobReport& report) {
  dc::FaultCounters total;
  for (const auto& st : report.stats) total += st.injected;
  return total.total();
}

/// Every rank sends a seeded-random batch of messages to random peers, then
/// receives exactly what was addressed to it. Totals are cross-checked with
/// an allreduce.
void message_storm(dc::Comm& comm, std::uint64_t seed) {
  const int p = comm.size();
  du::Xoshiro256 rng(du::derive_seed(seed, comm.rank()));

  // Plan: how many messages to each peer (every rank can recompute every
  // other rank's plan from the shared seed).
  auto plan_for = [&](int rank) {
    du::Xoshiro256 plan_rng(du::derive_seed(seed, rank) ^ 0xABCD);
    std::vector<int> counts(p);
    for (int dest = 0; dest < p; ++dest)
      counts[dest] = static_cast<int>(plan_rng.bounded(8));
    return counts;
  };

  const auto mine = plan_for(comm.rank());
  for (int dest = 0; dest < p; ++dest) {
    for (int k = 0; k < mine[dest]; ++k) {
      std::vector<std::uint64_t> payload(rng.bounded(64) + 1,
                                         static_cast<std::uint64_t>(comm.rank()));
      comm.send(dest, kStormTag, payload);
    }
  }
  // Receive everything addressed to us, from any source.
  int expected = 0;
  for (int src = 0; src < p; ++src) expected += plan_for(src)[comm.rank()];
  std::uint64_t received_words = 0;
  for (int i = 0; i < expected; ++i) {
    const auto payload = comm.recv<std::uint64_t>(dc::kAnySource, kStormTag);
    ASSERT_FALSE(payload.empty());
    // All words of one message carry the source rank.
    for (auto w : payload) ASSERT_EQ(w, payload.front());
    received_words += payload.size();
  }
  // Global conservation: words sent == words received.
  const auto sent_local = comm.allreduce(received_words, dc::ReduceOp::kSum);
  ASSERT_GT(sent_local, 0u);
}
}  // namespace

TEST(CommStress, MessageStormManyRanks) {
  for (int p : {2, 5, 12}) {
    dc::Runtime::run(p, [&](dc::Comm& comm) { message_storm(comm, 11); });
  }
}

TEST(CommStress, MessageStormUnderChaos) {
  const auto report = dc::Runtime::run(
      6, [&](dc::Comm& comm) { message_storm(comm, 13); },
      faulty_delivery(30));
  EXPECT_GT(faults_injected(report), 0u);
}

TEST(CommStress, RandomCollectiveSequence) {
  // All ranks draw the same seeded sequence of collectives and execute it;
  // any mismatch would deadlock or corrupt payloads.
  const int p = 6;
  dc::Runtime::run(p, [p](dc::Comm& comm) {
    du::Xoshiro256 shared(99);  // same stream on every rank
    for (int step = 0; step < 60; ++step) {
      switch (shared.bounded(5)) {
        case 0: comm.barrier(); break;
        case 1: {
          const int root = static_cast<int>(shared.bounded(p));
          const int value = comm.bcast_value(root, comm.rank() == root ? step : -1);
          ASSERT_EQ(value, step);
          break;
        }
        case 2: {
          const auto all = comm.allgather_value(comm.rank() * 3);
          for (int r = 0; r < p; ++r) ASSERT_EQ(all[r], r * 3);
          break;
        }
        case 3: {
          const auto sum = comm.allreduce(1, dc::ReduceOp::kSum);
          ASSERT_EQ(sum, p);
          break;
        }
        case 4: {
          std::vector<std::vector<int>> out(p);
          for (int dest = 0; dest < p; ++dest) out[dest] = {comm.rank(), step};
          const auto in = comm.alltoallv(out);
          for (int src = 0; src < p; ++src) {
            ASSERT_EQ(in[src].size(), 2u);
            ASSERT_EQ(in[src][0], src);
            ASSERT_EQ(in[src][1], step);
          }
          break;
        }
      }
    }
  });
}

TEST(CommStress, CollectiveSequenceUnderChaos) {
  const int p = 4;
  const auto report = dc::Runtime::run(
      p,
      [p](dc::Comm& comm) {
        for (int step = 0; step < 40; ++step) {
          const auto all = comm.allgatherv(std::vector<int>(comm.rank() + 1, step));
          for (int r = 0; r < p; ++r) {
            ASSERT_EQ(static_cast<int>(all[r].size()), r + 1);
            for (int x : all[r]) ASSERT_EQ(x, step);
          }
        }
      },
      faulty_delivery(20));
  EXPECT_GT(faults_injected(report), 0u);
}

TEST(CommStress, LargePayloadIntegrity) {
  dc::Runtime::run(3, [](dc::Comm& comm) {
    // 4 MiB of patterned doubles through gather + bcast paths.
    std::vector<double> mine(1 << 19);
    std::iota(mine.begin(), mine.end(), static_cast<double>(comm.rank()) * 1e6);
    const auto all = comm.allgatherv(mine);
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(all[r].size(), mine.size());
      ASSERT_DOUBLE_EQ(all[r].front(), r * 1e6);
      ASSERT_DOUBLE_EQ(all[r].back(), r * 1e6 + static_cast<double>(mine.size() - 1));
    }
  });
}
