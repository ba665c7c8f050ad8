// Fault-injection + recovery tests for the comm substrate (comm/fault.hpp):
// seeded drop/duplicate/reorder/corrupt plans must be healed transparently —
// payload-level semantics and, end to end, the final partition and MDL stay
// bit-identical to the fault-free run — while unrecoverable schedules and
// stalled ranks surface as typed CommFault diagnoses instead of hangs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "comm/send_channel.hpp"
#include "core/dist_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "util/check.hpp"

namespace dc = dinfomap::comm;
namespace core = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;

namespace {

dc::CommCounters sum_counters(const dc::Runtime::JobReport& report) {
  dc::CommCounters total;
  for (const auto& c : report.counters) total += c;
  return total;
}

dc::FaultCounters sum_faults(const dc::Runtime::JobReport& report) {
  dc::FaultCounters total;
  for (const auto& st : report.stats) total += st.injected;
  return total;
}

/// Rank 0 streams `count` tagged ints to rank 1, which must observe them in
/// exact send order whatever the plan does to the wire.
void ordered_stream_roundtrip(const dc::Runtime::Options& options, int count) {
  auto report = dc::Runtime::run(
      2,
      [&](dc::Comm& comm) {
        constexpr int kTag = 3;
        if (comm.rank() == 0) {
          for (int i = 0; i < count; ++i) comm.send_value<int>(1, kTag, i);
        } else {
          for (int i = 0; i < count; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, kTag), i) << "at message " << i;
        }
      },
      options);
  EXPECT_FALSE(report.aborted);
  EXPECT_GT(sum_faults(report).total(), 0u)
      << "plan never fired — the test exercised nothing";
}

}  // namespace

// ---- satellite: CommAborted-as-root-cause must not report success ----------

TEST(RuntimeAbort, RootCauseCommAbortedIsRethrown) {
  // A rank whose own failure *is* CommAborted used to be swallowed, turning
  // a dead job into silent success (and hanging its blocked peers).
  EXPECT_THROW(dc::Runtime::run(4,
                                [](dc::Comm& comm) {
                                  if (comm.rank() == 1)
                                    throw dc::CommAborted("root cause");
                                  (void)comm.recv_bytes(1, 7);
                                }),
               dc::CommAborted);
}

TEST(RuntimeAbort, PrimaryFailureOutranksSecondaryAborts) {
  // The opposite ordering: a real failure plus CommAborted casualties must
  // rethrow the primary error, not the abort.
  try {
    dc::Runtime::run(4, [](dc::Comm& comm) {
      if (comm.rank() == 2) throw std::runtime_error("rank 2 root cause");
      (void)comm.recv_bytes(2, 7);
    });
    FAIL() << "expected the primary failure to propagate";
  } catch (const dc::CommAborted&) {
    FAIL() << "secondary CommAborted outranked the primary failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 root cause");
  }
}

TEST(RuntimeAbort, CleanJobReportsNotAborted) {
  const auto report = dc::Runtime::run(3, [](dc::Comm& comm) {
    (void)comm.allreduce(comm.rank(), dc::ReduceOp::kSum);
  });
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.stalled_rank, -1);
  EXPECT_EQ(sum_counters(report).recovery_events(), 0u);
}

// ---- fault plans healed transparently --------------------------------------

TEST(FaultRecovery, PlanProbabilitiesValidated) {
  dc::Runtime::Options opt;
  opt.faults.drop = 0.7;
  opt.faults.duplicate = 0.7;
  // Config-time validation throws the typed error (not a generic contract
  // violation) so the CLI can map it to a clean exit-2 diagnostic.
  EXPECT_THROW(dc::Runtime::run(2, [](dc::Comm&) {}, opt),
               dc::FaultPlanError);
}

TEST(FaultRecovery, DropsRecoveredTransparently) {
  dc::Runtime::Options opt;
  opt.faults.drop = 0.3;
  opt.faults.seed = 11;
  auto report = dc::Runtime::run(
      2,
      [&](dc::Comm& comm) {
        constexpr int kTag = 3;
        if (comm.rank() == 0) {
          for (int i = 0; i < 200; ++i) comm.send_value<int>(1, kTag, i);
        } else {
          for (int i = 0; i < 200; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, kTag), i) << "at message " << i;
        }
      },
      opt);
  const auto total = sum_counters(report);
  const auto injected = sum_faults(report);
  EXPECT_GT(injected.drops, 0u);
  EXPECT_GT(total.retransmit_requests, 0u);
  EXPECT_GT(total.retransmits, 0u);
}

TEST(FaultRecovery, DuplicateFramesDropped) {
  dc::Runtime::Options opt;
  opt.faults.duplicate = 0.5;
  opt.faults.seed = 12;
  auto report = dc::Runtime::run(
      2,
      [&](dc::Comm& comm) {
        constexpr int kTag = 3;
        if (comm.rank() == 0) {
          for (int i = 0; i < 200; ++i) comm.send_value<int>(1, kTag, i);
        } else {
          for (int i = 0; i < 200; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, kTag), i) << "at message " << i;
        }
      },
      opt);
  const auto total = sum_counters(report);
  EXPECT_GT(sum_faults(report).duplicates, 0u);
  EXPECT_GT(total.dup_frames_dropped, 0u);
}

TEST(FaultRecovery, DuplicateCollectiveFramesDropped) {
  // Collective tags are used once per step, so a duplicated collective frame
  // is never pulled by a later receive; the receiver must drain the twin
  // when it consumes the original instead of leaving it in the inbox.
  dc::Runtime::Options opt;
  opt.faults.duplicate = 0.5;
  opt.faults.seed = 15;
  auto report = dc::Runtime::run(
      3,
      [&](dc::Comm& comm) {
        for (int i = 0; i < 50; ++i)
          ASSERT_EQ(comm.allreduce(i, dc::ReduceOp::kSum), 3 * i);
      },
      opt);
  EXPECT_GT(sum_faults(report).duplicates, 0u);
  EXPECT_GT(sum_counters(report).dup_frames_dropped, 0u);
}

TEST(FaultRecovery, CorruptionDetectedAndRepaired) {
  dc::Runtime::Options opt;
  opt.faults.corrupt = 0.5;
  opt.faults.seed = 13;
  auto report = dc::Runtime::run(
      2,
      [&](dc::Comm& comm) {
        constexpr int kTag = 3;
        if (comm.rank() == 0) {
          for (int i = 0; i < 200; ++i) comm.send_value<int>(1, kTag, i);
        } else {
          for (int i = 0; i < 200; ++i)
            ASSERT_EQ(comm.recv_value<int>(0, kTag), i) << "at message " << i;
        }
      },
      opt);
  const auto total = sum_counters(report);
  EXPECT_GT(sum_faults(report).corruptions, 0u);
  EXPECT_GT(total.checksum_failures, 0u);
  EXPECT_GT(total.retransmits, 0u);
}

TEST(FaultRecovery, ReorderTransparent) {
  dc::Runtime::Options opt;
  opt.faults.reorder = 0.5;
  opt.faults.seed = 14;
  ordered_stream_roundtrip(opt, 200);
}

TEST(FaultRecovery, EmptyPayloadCorruptionRecovered) {
  // Barrier frames carry no payload; corruption then damages the header
  // checksum instead and must still be detected and repaired.
  dc::Runtime::Options opt;
  opt.faults.corrupt = 0.5;
  opt.faults.seed = 15;
  auto report = dc::Runtime::run(
      4, [&](dc::Comm& comm) { for (int i = 0; i < 50; ++i) comm.barrier(); },
      opt);
  EXPECT_GT(sum_faults(report).corruptions, 0u);
  EXPECT_GT(sum_counters(report).checksum_failures, 0u);
}

TEST(FaultRecovery, MixedFaultStormCollectivesStayCorrect) {
  dc::Runtime::Options opt;
  opt.faults.drop = 0.05;
  opt.faults.duplicate = 0.05;
  opt.faults.reorder = 0.05;
  opt.faults.corrupt = 0.05;
  opt.faults.seed = 16;
  constexpr int kRanks = 5;
  auto report = dc::Runtime::run(
      kRanks,
      [&](dc::Comm& comm) {
        for (int round = 0; round < 20; ++round) {
          const int sum = comm.allreduce(comm.rank() + round, dc::ReduceOp::kSum);
          ASSERT_EQ(sum, kRanks * (kRanks - 1) / 2 + kRanks * round);
          const auto all = comm.allgather_value(comm.rank() * 3 + round);
          ASSERT_EQ(static_cast<int>(all.size()), kRanks);
          for (int r = 0; r < kRanks; ++r) ASSERT_EQ(all[r], r * 3 + round);
          std::vector<std::vector<int>> out(kRanks);
          for (int r = 0; r < kRanks; ++r)
            out[r] = {comm.rank() * 100 + r, round};
          const auto in = comm.alltoallv(out);
          for (int r = 0; r < kRanks; ++r) {
            ASSERT_EQ(in[r], (std::vector<int>{r * 100 + comm.rank(), round}));
          }
          comm.barrier();
        }
      },
      opt);
  const auto injected = sum_faults(report);
  EXPECT_GT(injected.drops, 0u);
  EXPECT_GT(injected.duplicates, 0u);
  EXPECT_GT(injected.reorders, 0u);
  EXPECT_GT(injected.corruptions, 0u);
  EXPECT_GT(sum_counters(report).recovery_events(), 0u);
}

TEST(FaultRecovery, EndpointStatsReportOwnInjectedFaults) {
  // Every endpoint reports its own side of the wire through
  // Transport::stats(): the faults its sends injected (read in the rank,
  // before the join) must equal the runtime's per-source tally, and its inbox
  // must have seen traffic.
  dc::Runtime::Options opt;
  opt.faults.drop = 0.05;
  opt.faults.duplicate = 0.05;
  opt.faults.reorder = 0.05;
  opt.faults.corrupt = 0.05;
  opt.faults.seed = 17;
  constexpr int kRanks = 4;
  std::vector<dc::Transport::Stats> in_rank(kRanks);
  auto report = dc::Runtime::run(
      kRanks,
      [&](dc::Comm& comm) {
        for (int round = 0; round < 20; ++round) {
          std::vector<std::vector<int>> out(kRanks);
          for (int r = 0; r < kRanks; ++r) out[r] = {comm.rank(), r, round};
          (void)comm.alltoallv(out);
          (void)comm.allreduce(round, dc::ReduceOp::kSum);
        }
        // A rank's tally only moves with its own sends, so it is final here.
        in_rank[static_cast<std::size_t>(comm.rank())] =
            comm.transport().stats();
      },
      opt);
  ASSERT_EQ(report.stats.size(), static_cast<std::size_t>(kRanks));
  dc::FaultCounters total;
  for (int r = 0; r < kRanks; ++r) {
    const auto& mine = in_rank[static_cast<std::size_t>(r)];
    const auto& tally = report.stats[static_cast<std::size_t>(r)];
    EXPECT_EQ(mine.injected.drops, tally.injected.drops) << "rank " << r;
    EXPECT_EQ(mine.injected.duplicates, tally.injected.duplicates)
        << "rank " << r;
    EXPECT_EQ(mine.injected.reorders, tally.injected.reorders) << "rank " << r;
    EXPECT_EQ(mine.injected.corruptions, tally.injected.corruptions)
        << "rank " << r;
    EXPECT_GT(mine.injected.total(), 0u) << "rank " << r;
    EXPECT_GT(mine.inbox_delivered, 0u) << "rank " << r;
    EXPECT_GT(mine.inbox_depth_high_water, 0u) << "rank " << r;
    total += mine.injected;
  }
  EXPECT_GT(total.drops, 0u);
  EXPECT_GT(total.duplicates, 0u);
  EXPECT_GT(total.reorders, 0u);
  EXPECT_GT(total.corruptions, 0u);
}

// ---- unrecoverable faults surface as CommFault, not hangs ------------------

TEST(FaultRecovery, UnrecoverableCorruptionThrowsCommFault) {
  // With a zero-length send log the pristine copy of a corrupt frame is gone
  // by the time the receiver detects it — a typed failure, immediately,
  // with no reliance on timeouts.
  dc::Runtime::Options opt;
  opt.faults.corrupt = 1.0;
  opt.faults.seed = 17;
  opt.retransmit_window = 0;
  try {
    dc::Runtime::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) comm.send_value<int>(1, 3, 42);
          else (void)comm.recv_value<int>(0, 3);
        },
        opt);
    FAIL() << "expected CommFault";
  } catch (const dc::CommFault& e) {
    EXPECT_EQ(e.rank(), 0);  // the corrupt frame came from rank 0
    EXPECT_NE(std::string(e.what()).find("unrecoverable"), std::string::npos)
        << e.what();
  }
}

TEST(FaultRecovery, RetryBudgetExhaustionNamesTheSilentPeer) {
  // Evicted history plus a frame that never arrives: the receiver must give
  // up after its bounded budget with a diagnosis, not spin forever.
  dc::Runtime::Options opt;
  opt.faults.drop = 1.0;
  opt.faults.seed = 18;
  opt.retransmit_window = 0;  // every loss is immediately unprovable
  opt.max_recv_retries = 3;
  opt.retry_backoff_us = 100;
  try {
    dc::Runtime::run(
        2,
        [](dc::Comm& comm) {
          if (comm.rank() == 0) comm.send_value<int>(1, 3, 42);
          else (void)comm.recv_value<int>(0, 3);
        },
        opt);
    FAIL() << "expected CommFault";
  } catch (const dc::CommFault& e) {
    EXPECT_EQ(e.rank(), 0);
    EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos)
        << e.what();
  }
}

// ---- the send channel both backends share ----------------------------------

TEST(SendChannel, LookupNamesFramesByTagAndOrdinal) {
  dc::FaultPlan plan;
  plan.corrupt = 1.0;  // every wire copy is damaged; the log must not be
  plan.seed = 3;
  dc::SendChannel ch(/*src=*/0, /*dest=*/1, plan, /*window=*/2);
  const auto value_of = [](const dc::Message& m) {
    int v = 0;
    std::memcpy(&v, m.payload.data(), sizeof(v));
    return v;
  };
  const auto verifies = [](const dc::Message& m) {
    return dc::frame_checksum(m.source, m.tag, m.seq, m.payload.data(),
                              m.payload.size()) == m.checksum;
  };
  constexpr int kA = 5;
  constexpr int kB = 9;
  // Sends (kA, 0), (kB, 0), (kA, 1), (kA, 2); a window of 2 keeps only the
  // last two in the log.
  const std::vector<std::pair<int, int>> sends = {
      {kA, 10}, {kB, 20}, {kA, 11}, {kA, 12}};
  for (const auto& [tag, value] : sends) {
    dc::Message m;
    m.source = 0;
    m.tag = tag;
    m.payload.resize(sizeof(int));
    std::memcpy(m.payload.data(), &value, sizeof(int));
    const auto wire = ch.send(std::move(m));
    ASSERT_EQ(wire.size(), 1u);
    EXPECT_FALSE(verifies(wire[0])) << "wire copy of " << value;
  }
  EXPECT_EQ(ch.injected().corruptions, sends.size());

  dc::Message got;
  ASSERT_EQ(ch.lookup(kA, 2, got), dc::RetransmitOutcome::kRedelivered);
  EXPECT_EQ(got.tag, kA);
  EXPECT_EQ(got.tag_seq, 2u);
  EXPECT_EQ(value_of(got), 12);
  EXPECT_TRUE(verifies(got)) << "the log keeps the pristine copy";

  // Sent and evicted.
  EXPECT_EQ(ch.lookup(kA, 0, got), dc::RetransmitOutcome::kNoneEvicted);
  EXPECT_EQ(ch.lookup(kB, 0, got), dc::RetransmitOutcome::kNoneEvicted);
  // Eviction is judged per frame: a later ordinal still in the log is found.
  ASSERT_EQ(ch.lookup(kA, 1, got), dc::RetransmitOutcome::kRedelivered);
  EXPECT_EQ(value_of(got), 11);
  EXPECT_TRUE(verifies(got));

  // Not sent yet.
  EXPECT_EQ(ch.lookup(kA, 3, got), dc::RetransmitOutcome::kNoneSafe);
  EXPECT_EQ(ch.lookup(kB, 1, got), dc::RetransmitOutcome::kNoneSafe);
  EXPECT_EQ(ch.lookup(/*tag=*/7, 0, got), dc::RetransmitOutcome::kNoneSafe);
}

TEST(Watchdog, StalledRankFailsWithDiagnosisInsteadOfHanging) {
  dc::Runtime::Options opt;
  opt.faults.stall_rank = 2;
  opt.faults.seed = 19;
  opt.watchdog_timeout_ms = 300;
  try {
    dc::Runtime::run(
        4,
        [](dc::Comm& comm) {
          for (int i = 0; i < 1000; ++i) comm.barrier();
        },
        opt);
    FAIL() << "expected the watchdog to abort the stalled job";
  } catch (const dc::CommFault& e) {
    EXPECT_EQ(e.rank(), 2);
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos)
        << e.what();
  }
}

TEST(Watchdog, QuietOnHealthyJob) {
  dc::Runtime::Options opt;
  opt.watchdog_timeout_ms = 2000;
  const auto report = dc::Runtime::run(3, [](dc::Comm& comm) {
    for (int i = 0; i < 10; ++i) comm.barrier();
  }, opt);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.stalled_rank, -1);
}

// ---- end to end: results bit-identical under any seeded plan ---------------

TEST(FaultDeterminism, PartitionAndMdlBitIdenticalUnderFaultPlans) {
  const auto gg = gen::sbm(400, 8, 0.08, 0.004, 5);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);

  core::DistInfomapConfig base;
  base.num_ranks = 4;
  const auto clean = core::distributed_infomap(g, base);

  std::vector<dc::FaultPlan> plans(4);
  plans[0].drop = 0.02;
  plans[1].duplicate = 0.02;
  plans[2].corrupt = 0.02;
  plans[3].drop = 0.01;
  plans[3].duplicate = 0.01;
  plans[3].reorder = 0.01;
  plans[3].corrupt = 0.01;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    plans[i].seed = 100 + i;
    auto cfg = base;
    cfg.faults = plans[i];
    const auto faulted = core::distributed_infomap(g, cfg);
    // Recovery must be invisible: not "close", *identical*.
    EXPECT_EQ(faulted.assignment, clean.assignment) << "plan " << i;
    EXPECT_EQ(faulted.codelength, clean.codelength) << "plan " << i;
    // ...and the plan must demonstrably have fired and been healed.
    dc::FaultCounters injected;
    for (const auto& f : faulted.report.faults_injected) injected += f;
    EXPECT_GT(injected.total(), 0u) << "plan " << i;
    dc::CommCounters comm_total;
    for (const auto& c : faulted.comm_counters) comm_total += c;
    EXPECT_GT(comm_total.recovery_events(), 0u) << "plan " << i;
  }
}

TEST(FaultDeterminism, FaultPlanEchoedInRunReport) {
  const auto gg = gen::ring_of_cliques(8, 5, 2);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  core::DistInfomapConfig cfg;
  cfg.num_ranks = 4;
  cfg.faults.drop = 0.02;
  cfg.faults.seed = 7;
  const auto result = core::distributed_infomap(g, cfg);
  const auto json = result.report.to_json();
  EXPECT_NE(json.find("\"fault_drop\""), std::string::npos);
  EXPECT_NE(json.find("\"faults_injected\""), std::string::npos);
  EXPECT_NE(json.find("\"retransmit_requests\""), std::string::npos);
}
