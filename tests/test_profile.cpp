// Causal-profiler tests (DESIGN.md §13): critical-path reconstruction on
// synthetic traces with hand-computable answers, digest self-consistency on
// real runs (wait + comm + compute tiles the wall; critical path bounds max
// busy), flow-edge matching (zero unmatched messages), the profile watchdog
// rules with trace-instant mirroring, and the zero-perturbation contract —
// profiling on vs off must be bit-identical across engines and fault plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dist_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace obs = dinfomap::obs;
namespace gen = dinfomap::graph::gen;

namespace {

using Kind = obs::TraceEvent::Kind;

obs::TraceEvent ev(Kind kind, const char* name, double ts, int peer = -1,
                   int tag = -1, std::uint64_t ordinal = 0) {
  obs::TraceEvent e;
  e.kind = kind;
  e.name = name;
  e.ts_us = ts;
  e.peer = peer;
  e.tag = tag;
  e.ordinal = ordinal;
  return e;
}

dg::Csr small_graph(std::uint64_t seed) {
  const auto gg = gen::sbm(300, 10, 0.2, 0.01, seed);
  return dg::build_csr(gg.edges, gg.num_vertices);
}

int count_instants(const obs::TraceBuffer& track, const char* name) {
  int n = 0;
  for (const auto& e : track.events())
    if (e.kind == Kind::kInstant && std::string(e.name) == name) ++n;
  return n;
}

}  // namespace

// --- critical path on a synthetic trace with a known answer -----------------

TEST(Profile, CriticalPathSplicesSenderChainThroughFlowEdge) {
  // rank 0: works 0..10, blocks in recv_wait 10..90, works 90..100.
  // rank 1: works 0..45, sending the message rank 0 waits for at t=40.
  // The longest causal chain is rank 1's 40 µs up to the send, spliced into
  // rank 0's 10 µs of post-wait work landing at t=100: but chain accounting
  // is in *active* time, so cp = max(rank0: 10 + max(0→spliced 40) + 10 = 50,
  // rank1: 45). Known answer: 50.
  obs::Trace trace(2, /*enabled=*/true);
  trace.track(0).append_raw(ev(Kind::kBegin, "Stage1", 0));
  trace.track(0).append_raw(ev(Kind::kBegin, "recv_wait", 10));
  trace.track(0).append_raw(ev(Kind::kFlowRecv, "msg", 90, /*peer=*/1,
                               /*tag=*/5, /*ordinal=*/0));
  trace.track(0).append_raw(ev(Kind::kEnd, "recv_wait", 90));
  trace.track(0).append_raw(ev(Kind::kEnd, "Stage1", 100));
  trace.track(1).append_raw(ev(Kind::kBegin, "Stage1", 0));
  trace.track(1).append_raw(ev(Kind::kFlowSend, "msg", 40, /*peer=*/0,
                               /*tag=*/5, /*ordinal=*/0));
  trace.track(1).append_raw(ev(Kind::kEnd, "Stage1", 45));

  const obs::ProfileDigest d = obs::build_profile(trace);
  EXPECT_EQ(d.num_ranks, 2);
  EXPECT_DOUBLE_EQ(d.wall_us, 100.0);
  EXPECT_DOUBLE_EQ(d.critical_path_us, 50.0);
  EXPECT_EQ(d.messages, 1u);
  EXPECT_EQ(d.unmatched_sends, 0u);
  EXPECT_EQ(d.unmatched_recvs, 0u);

  ASSERT_EQ(d.ranks.size(), 2u);
  EXPECT_DOUBLE_EQ(d.ranks[0].wall_us, 100.0);
  EXPECT_DOUBLE_EQ(d.ranks[0].wait_us, 80.0);
  EXPECT_DOUBLE_EQ(d.ranks[0].comm_us, 0.0);
  EXPECT_DOUBLE_EQ(d.ranks[0].compute_us, 20.0);
  EXPECT_DOUBLE_EQ(d.ranks[0].busy_us, 20.0);
  EXPECT_DOUBLE_EQ(d.ranks[1].wall_us, 45.0);
  EXPECT_DOUBLE_EQ(d.ranks[1].wait_us, 0.0);
  EXPECT_DOUBLE_EQ(d.ranks[1].busy_us, 45.0);
  // Critical path dominates every rank's busy time.
  for (const auto& r : d.ranks) EXPECT_GE(d.critical_path_us, r.busy_us);

  ASSERT_EQ(d.channels.size(), 1u);
  EXPECT_EQ(d.channels[0].src, 1);
  EXPECT_EQ(d.channels[0].dst, 0);
  EXPECT_EQ(d.channels[0].messages, 1u);
  EXPECT_EQ(d.channels[0].max_in_flight, 1u);
  EXPECT_EQ(d.channels[0].latency_us.count(), 1u);
  EXPECT_EQ(d.channels[0].latency_us.max(), 50u);  // sent 40, consumed 90
}

TEST(Profile, UnmatchedFlowsAreCountedNotFatal) {
  obs::Trace trace(2, /*enabled=*/true);
  trace.track(0).append_raw(ev(Kind::kFlowSend, "msg", 10, 1, 3, 0));
  trace.track(1).append_raw(ev(Kind::kFlowRecv, "msg", 20, 0, 9, 4));
  const obs::ProfileDigest d = obs::build_profile(trace);
  EXPECT_EQ(d.messages, 0u);
  EXPECT_EQ(d.unmatched_sends, 1u);  // tag 3 never consumed
  EXPECT_EQ(d.unmatched_recvs, 1u);  // tag 9 never sent
}

// --- collective wait attribution & straggler detection ----------------------

TEST(Profile, CollectiveWaitChargedToLastArriver) {
  // Both ranks run "PhaseX"; rank 0 reaches the barrier at t=10, rank 1
  // straggles in at t=48, both leave at t=50. Rank 0's 38 µs ahead of the
  // last arrival is collective wait, charged to straggler rank 1.
  obs::Trace trace(2, /*enabled=*/true);
  trace.track(0).append_raw(ev(Kind::kBegin, "PhaseX", 0));
  trace.track(0).append_raw(ev(Kind::kCollectiveArrive, "barrier", 10, -1, 100));
  trace.track(0).append_raw(ev(Kind::kCollectiveDepart, "barrier", 50, -1, 100));
  trace.track(0).append_raw(ev(Kind::kEnd, "PhaseX", 60));
  trace.track(1).append_raw(ev(Kind::kBegin, "PhaseX", 0));
  trace.track(1).append_raw(ev(Kind::kCollectiveArrive, "barrier", 48, -1, 100));
  trace.track(1).append_raw(ev(Kind::kCollectiveDepart, "barrier", 50, -1, 100));
  trace.track(1).append_raw(ev(Kind::kEnd, "PhaseX", 60));

  const obs::ProfileDigest d = obs::build_profile(trace);
  ASSERT_EQ(d.phases.size(), 1u);
  const obs::PhaseProfile& ph = d.phases[0];
  EXPECT_EQ(ph.name, "PhaseX");
  EXPECT_EQ(ph.instances, 1u);
  EXPECT_DOUBLE_EQ(ph.wait_us, 38.0);
  EXPECT_DOUBLE_EQ(ph.max_skew_us, 38.0);
  EXPECT_EQ(ph.worst_rank, 1);
  ASSERT_EQ(ph.caused_wait_us.size(), 2u);
  EXPECT_DOUBLE_EQ(ph.caused_wait_us[0], 0.0);
  EXPECT_DOUBLE_EQ(ph.caused_wait_us[1], 38.0);
  EXPECT_DOUBLE_EQ(d.ranks[0].collective_wait_us, 38.0);
  EXPECT_DOUBLE_EQ(d.ranks[1].collective_wait_us, 0.0);
  // Occupancy decomposition: rank 0 spent 40 inside the collective, none of
  // it in recv_wait, so comm = 40 and compute = 60 − 40 = 20.
  EXPECT_DOUBLE_EQ(d.ranks[0].comm_us, 40.0);
  EXPECT_DOUBLE_EQ(d.ranks[0].compute_us, 20.0);

  // The straggler rule pins rank 1 once the wait clears the noise floor.
  obs::WatchdogOptions opt;
  opt.min_straggler_wait_us = 10.0;
  const auto anomalies = obs::analyze_profile(d, opt);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "straggler_skew");
  EXPECT_EQ(anomalies[0].rank, 1);
}

TEST(Profile, WaitDominatedRuleRespectsFloorAndThreshold) {
  obs::Trace trace(1, /*enabled=*/true);
  trace.track(0).append_raw(ev(Kind::kBegin, "Stage1", 0));
  trace.track(0).append_raw(ev(Kind::kBegin, "recv_wait", 10));
  trace.track(0).append_raw(ev(Kind::kEnd, "recv_wait", 90));
  trace.track(0).append_raw(ev(Kind::kEnd, "Stage1", 100));
  const obs::ProfileDigest d = obs::build_profile(trace);

  obs::WatchdogOptions opt;
  opt.min_profile_wall_us = 50.0;  // 100 µs wall is above the floor
  auto anomalies = obs::analyze_profile(d, opt);
  ASSERT_EQ(anomalies.size(), 1u);  // 80% blocked > 60% threshold
  EXPECT_EQ(anomalies[0].kind, "wait_dominated");
  EXPECT_EQ(anomalies[0].rank, 0);

  opt.min_profile_wall_us = 1e6;  // runs this short are never judged
  EXPECT_TRUE(obs::analyze_profile(d, opt).empty());
  opt.min_profile_wall_us = 50.0;
  opt.wait_dominated_threshold = 0.9;  // 80% is under the bar
  EXPECT_TRUE(obs::analyze_profile(d, opt).empty());
}

// --- recorder integration: findings logged, typed, and mirrored -------------

TEST(Profile, RecorderMirrorsProfileFindingsIntoTrace) {
  obs::ObsOptions opt;
  opt.enabled = true;
  opt.watchdog_options.min_profile_wall_us = 50.0;
  opt.watchdog_options.min_straggler_wait_us = 10.0;
  obs::Recorder rec(2, opt);
  // Rank 0 is wait-dominated; rank 1 is the straggler of PhaseX's barrier.
  rec.track(0)->append_raw(ev(Kind::kBegin, "PhaseX", 0));
  rec.track(0)->append_raw(ev(Kind::kBegin, "recv_wait", 1));
  rec.track(0)->append_raw(ev(Kind::kEnd, "recv_wait", 80));
  rec.track(0)->append_raw(ev(Kind::kCollectiveArrive, "barrier", 80, -1, 7));
  rec.track(0)->append_raw(ev(Kind::kCollectiveDepart, "barrier", 120, -1, 7));
  rec.track(0)->append_raw(ev(Kind::kEnd, "PhaseX", 121));
  rec.track(1)->append_raw(ev(Kind::kBegin, "PhaseX", 0));
  rec.track(1)->append_raw(ev(Kind::kCollectiveArrive, "barrier", 118, -1, 7));
  rec.track(1)->append_raw(ev(Kind::kCollectiveDepart, "barrier", 120, -1, 7));
  rec.track(1)->append_raw(ev(Kind::kEnd, "PhaseX", 121));

  rec.finish_profile();
  ASSERT_NE(rec.profile(), nullptr);

  bool saw_wait = false;
  bool saw_straggler = false;
  for (const auto& a : rec.anomalies()) {
    if (a.kind == "wait_dominated") {
      saw_wait = true;
      EXPECT_EQ(a.rank, 0);
    }
    if (a.kind == "straggler_skew") {
      saw_straggler = true;
      EXPECT_EQ(a.rank, 1);
    }
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_straggler);
  // Each finding is mirrored as an "anomaly" instant on the culprit's track,
  // with timestamps later than the profiled window (the digest was built
  // before mirroring, so they cannot contaminate it).
  EXPECT_GE(count_instants(rec.trace().track(0), "anomaly"), 1);
  EXPECT_GE(count_instants(rec.trace().track(1), "anomaly"), 1);
  EXPECT_DOUBLE_EQ(rec.profile()->wall_us, 121.0);
}

TEST(Profile, WatchdogMirrorsRoundRuleFindingsIntoTrace) {
  obs::ObsOptions opt;
  opt.enabled = true;
  obs::Recorder rec(1, opt);
  obs::RoundSample a;
  a.level = 0;
  a.round = 0;
  a.codelength = 5.0;
  obs::RoundSample b = a;
  b.round = 1;
  b.codelength = 6.0;  // regression
  b.is_epoch = true;   // and a thrashing epoch
  b.worklist_popped = 1000;
  b.worklist_requeued = 8000;
  rec.record_round(0, a);
  rec.record_round(0, b);
  rec.finish_profile();  // trace is empty: no profile findings
  rec.finish_watchdog();

  bool saw_mdl = false;
  bool saw_thrash = false;
  for (const auto& an : rec.anomalies()) {
    if (an.kind == "mdl_regression") saw_mdl = true;
    if (an.kind == "worklist_thrash") {
      saw_thrash = true;
      EXPECT_EQ(an.rank, 0);
    }
  }
  EXPECT_TRUE(saw_mdl);
  EXPECT_TRUE(saw_thrash);
  EXPECT_GE(count_instants(rec.trace().track(0), "anomaly"), 2);
}

// --- digest JSON ------------------------------------------------------------

TEST(Profile, DigestJsonIsByteStableAndCarriesSchema) {
  obs::Trace trace(2, /*enabled=*/true);
  trace.track(0).append_raw(ev(Kind::kBegin, "Stage1", 0));
  trace.track(0).append_raw(ev(Kind::kFlowSend, "msg", 5, 1, 2, 0));
  trace.track(0).append_raw(ev(Kind::kEnd, "Stage1", 30));
  trace.track(1).append_raw(ev(Kind::kBegin, "Stage1", 0));
  trace.track(1).append_raw(ev(Kind::kFlowRecv, "msg", 20, 0, 2, 0));
  trace.track(1).append_raw(ev(Kind::kEnd, "Stage1", 30));
  const obs::ProfileDigest d = obs::build_profile(trace);
  const std::string json = d.to_json();
  EXPECT_EQ(json, d.to_json());  // deterministic serialization
  EXPECT_NE(json.find("\"schema\": \"dinfomap.profile/1\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Sorted keys within objects (probed with keys unique to the top level).
  EXPECT_LT(json.find("\"channels\""), json.find("\"critical_path_us\""));
  EXPECT_LT(json.find("\"critical_path_us\""), json.find("\"num_ranks\""));
  EXPECT_LT(json.find("\"num_ranks\""), json.find("\"unmatched_recvs\""));
}

// --- real-run self-consistency ----------------------------------------------

TEST(Profile, RealRunDigestIsSelfConsistent) {
  const auto g = small_graph(11);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 4;
  cfg.obs.enabled = true;
  const auto result = dc::distributed_infomap(g, cfg);
  ASSERT_TRUE(result.report.has_profile);
  const obs::ProfileDigest& d = result.report.profile;
  EXPECT_EQ(d.schema, obs::kProfileSchema);
  EXPECT_EQ(d.num_ranks, 4);
  EXPECT_GT(d.wall_us, 0.0);

  double max_busy = 0;
  for (const obs::RankProfile& r : d.ranks) {
    // The decomposition tiles the rank's wall exactly (compute is defined as
    // the remainder; the tolerance is double rounding only).
    EXPECT_NEAR(r.wait_us + r.comm_us + r.compute_us, r.wall_us,
                1e-6 * std::max(1.0, r.wall_us))
        << "rank " << r.rank;
    EXPECT_GE(r.wait_us, 0.0);
    EXPECT_GE(r.comm_us, 0.0);
    EXPECT_GE(r.compute_us, 0.0);
    EXPECT_LE(r.wall_us, d.wall_us + 1e-6);
    max_busy = std::max(max_busy, r.busy_us);
  }
  // The critical path can never be shorter than the busiest rank, and never
  // longer than the run itself.
  EXPECT_GE(d.critical_path_us, max_busy - 1e-6);
  EXPECT_LE(d.critical_path_us, d.wall_us + 1e-6);

  // Every transport message pairs a send with its consumption: the per-rank
  // FIFO/min-seq ordinal discipline leaves nothing unmatched.
  EXPECT_GT(d.messages, 0u);
  EXPECT_EQ(d.unmatched_sends, 0u);
  EXPECT_EQ(d.unmatched_recvs, 0u);
  ASSERT_FALSE(d.channels.empty());
  for (const obs::ChannelProfile& ch : d.channels) {
    EXPECT_NE(ch.src, ch.dst);
    EXPECT_EQ(ch.messages, ch.latency_us.count());
    EXPECT_GE(ch.max_in_flight, 1u);
  }
  // The paper's phases appear in the collective-wait attribution.
  ASSERT_FALSE(d.phases.empty());
  bool known_phase = false;
  for (const obs::PhaseProfile& ph : d.phases) {
    EXPECT_GT(ph.instances, 0u);
    if (ph.name == "Stage1" || ph.name == "Stage2" ||
        ph.name == "MergeLevel" || ph.name == "FinalProjection" ||
        ph.name == "Redistribute" || ph.name == "(top)")
      known_phase = true;
  }
  EXPECT_TRUE(known_phase);
  // Phases arrive sorted by wait, heaviest first.
  for (std::size_t i = 1; i < d.phases.size(); ++i)
    EXPECT_GE(d.phases[i - 1].wait_us, d.phases[i].wait_us);
}

TEST(Profile, AsyncRunAttributesEpochsAndStaysConsistent) {
  const auto g = small_graph(13);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 4;
  cfg.async = true;
  cfg.obs.enabled = true;
  const auto result = dc::distributed_infomap(g, cfg);
  ASSERT_TRUE(result.report.has_profile);
  const obs::ProfileDigest& d = result.report.profile;
  EXPECT_EQ(d.unmatched_sends, 0u);
  EXPECT_EQ(d.unmatched_recvs, 0u);
  double max_busy = 0;
  for (const obs::RankProfile& r : d.ranks) {
    EXPECT_NEAR(r.wait_us + r.comm_us + r.compute_us, r.wall_us,
                1e-6 * std::max(1.0, r.wall_us));
    max_busy = std::max(max_busy, r.busy_us);
  }
  EXPECT_GE(d.critical_path_us, max_busy - 1e-6);
  // The async engine's epochs are first-class phases in the attribution.
  bool saw_epoch = false;
  for (const obs::PhaseProfile& ph : d.phases)
    if (ph.name == "AsyncEpoch") saw_epoch = true;
  EXPECT_TRUE(saw_epoch);
}

// --- zero perturbation ------------------------------------------------------

TEST(ProfileDeterminism, ProfiledRunsBitIdenticalAcrossThreadsAndEngines) {
  const auto g = small_graph(5);
  for (const bool async : {false, true}) {
    dc::DistInfomapConfig cfg;
    cfg.num_ranks = 4;
    cfg.async = async;
    cfg.obs.enabled = false;
    const auto off = dc::distributed_infomap(g, cfg);
    cfg.obs.enabled = true;  // trace + profile + watchdog all armed
    const auto on = dc::distributed_infomap(g, cfg);
    const char* label = async ? "async" : "sync";
    EXPECT_EQ(off.assignment, on.assignment) << label;
    EXPECT_DOUBLE_EQ(off.codelength, on.codelength) << label;
    EXPECT_EQ(off.stage1_rounds, on.stage1_rounds) << label;
    EXPECT_EQ(off.stage1_round_codelengths, on.stage1_round_codelengths)
        << label;
    ASSERT_TRUE(on.report.has_profile) << label;
    EXPECT_EQ(on.report.profile.unmatched_sends, 0u) << label;
    EXPECT_EQ(on.report.profile.unmatched_recvs, 0u) << label;
  }
}

TEST(ProfileDeterminism, ProfiledRunsBitIdenticalUnderFaultPlan) {
  const auto g = small_graph(9);
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 4;
  cfg.faults.drop = 0.02;
  cfg.faults.duplicate = 0.02;
  cfg.faults.seed = 77;
  cfg.comm_watchdog_ms = 20'000;
  cfg.obs.enabled = false;
  const auto off = dc::distributed_infomap(g, cfg);
  cfg.obs.enabled = true;
  const auto on = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(off.assignment, on.assignment);
  EXPECT_DOUBLE_EQ(off.codelength, on.codelength);
  EXPECT_EQ(off.stage1_rounds, on.stage1_rounds);
  ASSERT_TRUE(on.report.has_profile);
  // Recovery keeps consumption order canonical, so flows still pair exactly
  // even with drops and duplicates on the wire.
  EXPECT_EQ(on.report.profile.unmatched_sends, 0u);
  EXPECT_EQ(on.report.profile.unmatched_recvs, 0u);
  EXPECT_GT(on.report.profile.messages, 0u);
}
