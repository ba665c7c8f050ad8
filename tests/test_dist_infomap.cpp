// End-to-end and invariant tests of the distributed Infomap (Alg. 2 + 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "comm/runtime.hpp"
#include "core/dist_infomap.hpp"
#include "core/dist_internal.hpp"
#include "core/flowgraph.hpp"
#include "core/seq_infomap.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "obs/recorder.hpp"
#include "quality/metrics.hpp"
#include "util/check.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;

namespace dinfomap::core::detail {
/// Whitebox access to one rank's phases (declared a friend of DistRank).
struct DistRankTestPeer {
  /// Bring a freshly constructed rank to its pre-round state (as execute()
  /// does), run one SwapBoundaryInfo phase, and return the arcs it charged.
  static std::uint64_t swap_round_arcs(DistRank& rank) {
    rank.setup_subscriptions();
    rank.init_singleton_modules();
    const auto before = rank.work(Phase::kSwapBoundaryInfo).arcs_scanned;
    (void)rank.swap_boundary_info(0);
    return rank.work(Phase::kSwapBoundaryInfo).arcs_scanned - before;
  }
  static std::uint64_t local_arcs(const DistRank& rank) {
    return rank.arcs_.size();
  }

  /// Run execute()'s prologue and `rounds` synchronous stage-1 rounds, then
  /// count by brute force the distinct (module(u), module(v)) pairs of the
  /// local graph — the coarse arcs this rank should ship, self pairs for
  /// carried self flow included — and merge the level. Dense relabeling is
  /// monotone in the module id, so module pairs and coarse pairs correspond.
  static std::uint64_t distinct_pairs_then_merge(DistRank& rank, int rounds) {
    util::Xoshiro256 rng(util::derive_seed(rank.cfg_.seed, rank.comm_.rank()));
    rank.setup_subscriptions();
    rank.init_singleton_modules();
    (void)rank.other_update(rank.swap_boundary_info(0), 0);
    for (int i = 0; i < rounds; ++i) (void)rank.round(/*with_delegates=*/true, rng);
    std::set<std::pair<ModuleId, ModuleId>> pairs;
    for (std::uint32_t li = 0; li < rank.verts_.size(); ++li) {
      const ModuleId m = rank.module_of_[li];
      for (std::uint32_t a = rank.arc_off_[li]; a < rank.arc_off_[li + 1]; ++a)
        pairs.emplace(m, rank.module_of_[rank.arcs_[a].target]);
      if (rank.verts_[li].self_flow > 0 && rank.verts_[li].kind != Kind::kGhost)
        pairs.emplace(m, m);
    }
    (void)rank.merge_level();
    return pairs.size();
  }

  /// What one rank shows of the settled-vertex protocol over execute()'s
  /// prologue, one stage-1 round, the merge and one stage-2 round.
  struct SettledProbe {
    std::uint64_t settled[2] = {0, 0};  ///< settled vertices held, per level
    /// Settled vertices with a modules_ entry or a homed_ slot (must be 0).
    std::uint64_t in_tables = 0;
    std::uint64_t alive[2] = {0, 0};    ///< alive_modules_ at singleton state
    VertexId level_n[2] = {0, 0};
    std::uint64_t other_collectives = 0;  ///< of one other_update call
    std::uint64_t round_collectives = 0;  ///< of one stage-2 sync round
    std::uint64_t merge_collectives = 0;  ///< of one merge_level call
  };
  static SettledProbe settled_probe(DistRank& rank) {
    SettledProbe probe;
    const auto calls = [&rank] { return rank.comm_.counters().collective_calls; };
    const auto look = [&](int level) {
      probe.alive[level] = rank.alive_modules_;
      probe.level_n[level] = rank.level_n_;
      for (std::uint32_t li = 0; li < rank.verts_.size(); ++li) {
        if (!rank.settled(li)) continue;
        ++probe.settled[level];
        const ModuleId m = rank.module_of_[li];
        if (rank.modules_.contains(m) ||
            rank.homed_.find(rank.home_slot(m)) != nullptr)
          ++probe.in_tables;
      }
    };
    util::Xoshiro256 rng(util::derive_seed(rank.cfg_.seed, rank.comm_.rank()));
    rank.setup_subscriptions();
    rank.init_singleton_modules();
    (void)rank.other_update(rank.swap_boundary_info(0), 0);
    look(0);
    (void)rank.round(/*with_delegates=*/true, rng);
    const auto before_merge = calls();
    (void)rank.merge_level();
    probe.merge_collectives = calls() - before_merge;
    const HomeTotals totals = rank.swap_boundary_info(0);
    const auto before_other = calls();
    (void)rank.other_update(totals, 0);
    probe.other_collectives = calls() - before_other;
    look(1);
    const auto before_round = calls();
    (void)rank.round(/*with_delegates=*/false, rng);
    probe.round_collectives = calls() - before_round;
    return probe;
  }

  /// The rank's local graph in plain form, for comparison with a reference.
  struct LocalGraph {
    std::vector<VertexId> global;
    std::vector<double> self_flow;
    std::vector<double> out_flow;
    std::vector<std::uint32_t> arc_off;
    std::vector<std::pair<std::uint32_t, double>> arcs;
    bool operator==(const LocalGraph&) const = default;
  };
  static LocalGraph build(DistRank& rank,
                          std::vector<std::vector<CoarseArc>> runs,
                          VertexId level_n) {
    rank.build_local_graph(runs, rank.comm_.size(), level_n);
    LocalGraph g;
    for (const auto& lv : rank.verts_) {
      g.global.push_back(lv.global);
      g.self_flow.push_back(lv.self_flow);
      g.out_flow.push_back(lv.out_flow);
    }
    g.arc_off = rank.arc_off_;
    for (const auto& a : rank.arcs_) g.arcs.emplace_back(a.target, a.flow);
    for (std::uint32_t li = 0; li < rank.verts_.size(); ++li)
      EXPECT_EQ(rank.local_index(rank.verts_[li].global), li);
    // Ids off the wire may lie past the level: not held, never out of bounds.
    EXPECT_EQ(rank.local_index(level_n), DistRank::kNotHere);
    EXPECT_EQ(rank.local_index(~VertexId{0}), DistRank::kNotHere);
    return g;
  }

  /// After execute()'s prologue, point the first neighbour of one owned
  /// vertex at a module id the local table does not hold, then evaluate the
  /// vertex. True iff the move search refused to price that candidate.
  static bool missing_candidate_throws(DistRank& rank) {
    rank.setup_subscriptions();
    rank.init_singleton_modules();
    (void)rank.other_update(rank.swap_boundary_info(0), 0);
    ModuleId missing = rank.level_n_;
    for (ModuleId m = 0; m < rank.level_n_; ++m) {
      if (!rank.modules_.contains(m)) {
        missing = m;
        break;
      }
    }
    if (missing == rank.level_n_) return false;
    for (const std::uint32_t li : rank.movable_) {
      if (rank.verts_[li].kind != Kind::kOwned) continue;
      if (rank.arc_off_[li] == rank.arc_off_[li + 1]) continue;
      rank.module_of_[rank.arcs_[rank.arc_off_[li]].target] = missing;
      try {
        DistRank::BestMove mv;
        (void)rank.best_move_for(li, mv);
      } catch (const ContractViolation&) {
        return true;
      }
      return false;
    }
    return false;
  }

  /// What one rank shows of the level layout: arcs whose boundary bit
  /// disagrees with their target's kind, vertices whose split bit disagrees
  /// with the split rule, held vertices whose module_of_ entry disagrees
  /// with the owner's, and rounds whose changed owned entries do not match
  /// the moves the round reported.
  struct LayoutProbe {
    std::uint64_t checks = 0;
    std::uint64_t bad_boundary = 0;
    std::uint64_t bad_split = 0;
    std::uint64_t split = 0;  ///< split vertices seen, over all checks
    std::uint64_t hubs = 0;   ///< hubs seen, over all checks
    std::uint64_t bad_module = 0;
    std::uint64_t bad_moves = 0;
  };
  /// The split rule from scratch: an owned vertex with an arc to a ghost, or
  /// a hub when the job has more than one rank.
  static bool split_rule(const DistRank& rank, std::uint32_t li) {
    const Kind kind = rank.verts_[li].kind;
    if (kind == Kind::kDelegate) return rank.comm_.size() > 1;
    if (kind != Kind::kOwned) return false;
    for (std::uint32_t a = rank.arc_off_[li]; a < rank.arc_off_[li + 1]; ++a)
      if (rank.verts_[rank.arcs_[a].target].kind == Kind::kGhost) return true;
    return false;
  }
  static void check_boundary_bits(const DistRank& rank, LayoutProbe& probe) {
    ++probe.checks;
    for (const auto& a : rank.arcs_)
      if ((a.boundary != 0) != (rank.verts_[a.target].kind != Kind::kOwned))
        ++probe.bad_boundary;
    for (std::uint32_t li = 0; li < rank.verts_.size(); ++li) {
      if ((rank.verts_[li].split != 0) != split_rule(rank, li)) ++probe.bad_split;
      if (rank.verts_[li].split != 0) ++probe.split;
      if (rank.verts_[li].kind == Kind::kDelegate) ++probe.hubs;
    }
  }
  /// Every rank publishes (vertex, module) for the vertices it controls, and
  /// checks each vertex it holds against that from-scratch assignment.
  static void check_modules(DistRank& rank, LayoutProbe& probe) {
    std::vector<std::uint64_t> mine;
    for (std::uint32_t li = 0; li < rank.verts_.size(); ++li) {
      const auto& lv = rank.verts_[li];
      if (lv.kind == Kind::kGhost || rank.owner_of(lv.global) != rank.comm_.rank())
        continue;
      mine.push_back(lv.global);
      mine.push_back(rank.module_of_[li]);
    }
    std::vector<std::uint64_t> truth(rank.level_n_, ~std::uint64_t{0});
    for (const auto& batch : rank.comm_.allgatherv(mine))
      for (std::size_t i = 0; i + 1 < batch.size(); i += 2)
        truth[batch[i]] = batch[i + 1];
    for (std::uint32_t li = 0; li < rank.verts_.size(); ++li)
      if (truth[rank.verts_[li].global] != rank.module_of_[li]) ++probe.bad_module;
  }
  /// One sync round: its owned non-hub vertices that changed module must be
  /// exactly the round's local moves (each is visited once per round).
  static void checked_round(DistRank& rank, bool with_delegates,
                            util::Xoshiro256& rng, LayoutProbe& probe) {
    const std::vector<VertexId> before = rank.module_of_;
    const DistRank::RoundResult rr = rank.round(with_delegates, rng);
    std::uint64_t changed = 0;
    for (std::uint32_t li = 0; li < rank.verts_.size(); ++li)
      if (rank.verts_[li].kind == Kind::kOwned && rank.module_of_[li] != before[li])
        ++changed;
    if (changed != rr.local_moves) ++probe.bad_moves;
    check_modules(rank, probe);
  }
  /// Every home's live homed_ entries, gathered on every rank and indexed by
  /// module id (num_members == 0: not a live homed module).
  struct HomedEntry {
    ModuleId id = 0;
    std::uint32_t pad_ = 0;
    ModuleStats stats;
  };
  static std::vector<ModuleStats> gather_homed(DistRank& rank) {
    std::vector<HomedEntry> mine;
    for (const ModuleId slot : rank.homed_.keys()) {
      const ModuleStats& stats = *rank.homed_.find(slot);
      if (stats.num_members > 0) mine.push_back({rank.homed_id(slot), 0, stats});
    }
    std::vector<ModuleStats> truth(rank.level_n_);
    for (const auto& batch : rank.comm_.allgatherv(mine))
      for (const HomedEntry& e : batch) truth[e.id] = e.stats;
    return truth;
  }

  /// What one rank shows of the one-carrier protocol after each swap: held
  /// non-settled vertices whose module is missing from modules_ or whose
  /// stats differ bitwise from the home's, and the largest |Σ sum_pr − 1|
  /// over the live homed modules.
  struct CarrierProbe {
    std::uint64_t swaps = 0;
    std::uint64_t missing = 0;
    std::uint64_t stale = 0;
    double max_mass_error = 0;
  };
  static void check_carrier(DistRank& rank, CarrierProbe& probe) {
    ++probe.swaps;
    const std::vector<ModuleStats> truth = gather_homed(rank);
    double mass = 0;
    for (const ModuleStats& s : truth) mass += s.sum_pr;
    probe.max_mass_error = std::max(probe.max_mass_error, std::abs(mass - 1.0));
    for (std::uint32_t li = 0; li < rank.verts_.size(); ++li) {
      if (rank.settled(li)) continue;
      const ModuleId m = rank.module_of_[li];
      const ModuleStats* held = rank.modules_.find(m);
      if (held == nullptr) {
        ++probe.missing;
      } else if (held->sum_pr != truth[m].sum_pr ||
                 held->exit_pr != truth[m].exit_pr ||
                 held->num_members != truth[m].num_members) {
        ++probe.stale;
      }
    }
  }
  /// execute()'s level loop, checked after every swap: each sync round's,
  /// each async level's last reconciliation, and each merge's resync.
  static CarrierProbe carrier_probe(DistRank& rank) {
    CarrierProbe probe;
    util::Xoshiro256 rng(util::derive_seed(rank.cfg_.seed, rank.comm_.rank()));
    rank.setup_subscriptions();
    rank.init_singleton_modules();
    (void)rank.other_update(rank.swap_boundary_info(0), 0);
    check_carrier(rank, probe);
    for (int level = 0; level < 3; ++level) {
      const bool stage1 = level == 0;
      OuterIterationInfo info;
      if (rank.cfg_.async) {
        rank.async_level(stage1, info);
        check_carrier(rank, probe);
      } else {
        for (int i = 0; i < 4; ++i) {
          (void)rank.round(stage1, rng);
          check_carrier(rank, probe);
        }
      }
      (void)rank.merge_level();
      (void)rank.other_update(rank.swap_boundary_info(0), 0);
      check_carrier(rank, probe);
    }
    return probe;
  }

  /// execute()'s prologue, stage 1 and its merge, then a level forced to
  /// end worse than it began: every held vertex joins module 0 on every
  /// rank and one resync prices that. undo_worse_level must bring the level
  /// back to its singletons and its starting L, bit for bit.
  struct UndoProbe {
    double before = 0;
    double worse = 0;
    double after = 0;
    std::uint64_t alive = 0;
    VertexId level_n = 0;
    std::uint64_t not_singleton = 0;  ///< held vertices outside their own module
    CarrierProbe carrier;             ///< the table after the undo
  };
  static UndoProbe undo_probe(DistRank& rank) {
    UndoProbe probe;
    util::Xoshiro256 rng(util::derive_seed(rank.cfg_.seed, rank.comm_.rank()));
    rank.setup_subscriptions();
    rank.init_singleton_modules();
    (void)rank.other_update(rank.swap_boundary_info(0), 0);
    OuterIterationInfo info;
    (void)rank.sync_level(/*with_delegates=*/true, info, rng);
    (void)rank.merge_level();
    (void)rank.other_update(rank.swap_boundary_info(0), 0);
    probe.before = rank.codelength_;
    for (VertexId& m : rank.module_of_) m = 0;
    (void)rank.other_update(rank.swap_boundary_info(0), 0);
    probe.worse = rank.codelength_;
    rank.undo_worse_level(probe.before);
    probe.after = rank.codelength_;
    probe.alive = rank.alive_modules_;
    probe.level_n = rank.level_n_;
    for (std::uint32_t li = 0; li < rank.verts_.size(); ++li)
      if (rank.module_of_[li] != rank.verts_[li].global) ++probe.not_singleton;
    check_carrier(rank, probe.carrier);
    return probe;
  }

  /// What one rank shows of the sub-round filter over several levels of
  /// sync rounds: split vertices (owned or hub) that changed module in a
  /// round, and those of them outside that round's class.
  struct SubRoundProbe {
    std::uint64_t rounds = 0;
    std::uint64_t moved_split = 0;
    std::uint64_t out_of_class = 0;
  };
  static SubRoundProbe sub_round_probe(DistRank& rank) {
    SubRoundProbe probe;
    util::Xoshiro256 rng(util::derive_seed(rank.cfg_.seed, rank.comm_.rank()));
    rank.setup_subscriptions();
    rank.init_singleton_modules();
    (void)rank.other_update(rank.swap_boundary_info(0), 0);
    for (int level = 0; level < 3; ++level) {
      rank.current_level_ = level;
      for (int i = 0; i < 4; ++i) {
        const int round = rank.round_index_;
        const std::vector<VertexId> before = rank.module_of_;
        (void)rank.round(level == 0, rng);
        ++probe.rounds;
        for (std::uint32_t li = 0; li < rank.verts_.size(); ++li) {
          const auto& lv = rank.verts_[li];
          if (lv.kind == Kind::kGhost || !lv.split) continue;
          if (rank.module_of_[li] == before[li]) continue;
          ++probe.moved_split;
          if (sub_round_class(rank.cfg_.seed, level, round, lv.global) !=
              round % kSubRounds)
            ++probe.out_of_class;
        }
      }
      (void)rank.merge_level();
      (void)rank.other_update(rank.swap_boundary_info(0), 0);
    }
    return probe;
  }

  static LayoutProbe layout_probe(DistRank& rank) {
    LayoutProbe probe;
    util::Xoshiro256 rng(util::derive_seed(rank.cfg_.seed, rank.comm_.rank()));
    check_boundary_bits(rank, probe);
    rank.setup_subscriptions();
    rank.init_singleton_modules();
    (void)rank.other_update(rank.swap_boundary_info(0), 0);
    check_modules(rank, probe);
    for (int level = 0; level < 3; ++level) {
      for (int i = 0; i < 2; ++i) checked_round(rank, level == 0, rng, probe);
      (void)rank.merge_level();
      check_boundary_bits(rank, probe);
      (void)rank.other_update(rank.swap_boundary_info(0), 0);
      check_modules(rank, probe);
    }
    return probe;
  }
};
}  // namespace dinfomap::core::detail

namespace {
dc::DistInfomapConfig config_for(int p) {
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  return cfg;
}
}  // namespace

TEST(DistInfomap, SingleRankMatchesProblemShape) {
  const auto gg = gen::ring_of_cliques(6, 4, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::distributed_infomap(g, config_for(1));
  EXPECT_EQ(result.assignment.size(), g.num_vertices());
  EXPECT_EQ(result.num_modules(), 6u);
  EXPECT_DOUBLE_EQ(
      dinfomap::quality::nmi(result.assignment, *gg.ground_truth), 1.0);
}

TEST(DistInfomap, RecoversRingOfCliquesAcrossRanks) {
  const auto gg = gen::ring_of_cliques(10, 5, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto seq = dc::sequential_infomap(g);
  for (int p : {2, 3, 4}) {
    const auto result = dc::distributed_infomap(g, config_for(p));
    // The paper's own distributed-vs-sequential agreement is NMI ≈ 0.8
    // (Table 2); on this crisp testbed we hold it to ≥ 0.9 plus a tight
    // codelength bound.
    EXPECT_GT(dinfomap::quality::nmi(result.assignment, *gg.ground_truth), 0.9)
        << "p=" << p;
    EXPECT_LT(result.codelength, seq.codelength * 1.10) << "p=" << p;
  }
}

TEST(DistInfomap, SingletonCodelengthMatchesSequential) {
  // The exact-aggregation swap must reproduce the sequential singleton L
  // bit-for-bit (modulo reduction order) at startup.
  const auto gg = gen::lfr_lite({}, 3);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto seq = dc::sequential_infomap(g);
  for (int p : {1, 2, 4}) {
    const auto dist = dc::distributed_infomap(g, config_for(p));
    EXPECT_NEAR(dist.singleton_codelength, seq.singleton_codelength, 1e-9)
        << "p=" << p;
  }
}

TEST(DistInfomap, ReportedCodelengthMatchesGatheredAssignment) {
  // The distributed L (summed in rank order over module homes) must equal
  // an independent sequential scoring of the gathered assignment.
  const auto gg = gen::sbm(240, 6, 0.25, 0.01, 7);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  for (int p : {1, 2, 3, 4}) {
    const auto dist = dc::distributed_infomap(g, config_for(p));
    EXPECT_NEAR(dist.codelength,
                dc::codelength_of_partition(fg, dist.assignment), 1e-9)
        << "p=" << p;
  }
}

TEST(DistInfomap, QualityCloseToSequential) {
  // Fig. 4's claim: distributed MDL converges close to sequential.
  const auto gg = gen::lfr_lite({}, 19);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto seq = dc::sequential_infomap(g);
  for (int p : {2, 4}) {
    const auto dist = dc::distributed_infomap(g, config_for(p));
    EXPECT_LT(dist.codelength, seq.singleton_codelength);
    // Within 5% of the sequential optimum.
    EXPECT_LT(dist.codelength, seq.codelength * 1.05) << "p=" << p;
  }
}

TEST(DistInfomap, DeterministicForFixedConfig) {
  const auto gg = gen::lfr_lite({}, 23);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto a = dc::distributed_infomap(g, config_for(3));
  const auto b = dc::distributed_infomap(g, config_for(3));
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.codelength, b.codelength);
}

TEST(DistInfomap, TraceMonotoneAndStagesRecorded) {
  const auto gg = gen::lfr_lite({}, 29);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto result = dc::distributed_infomap(g, config_for(4));
  ASSERT_GE(result.trace.size(), 1u);
  // Monotone: a level that ends worse than it began is undone; see
  // test_dist_property for the sweep.
  for (const auto& row : result.trace)
    EXPECT_LE(row.codelength_after, row.codelength_before);
  EXPECT_GT(result.stage1_rounds, 0);
  EXPECT_GE(result.stage2_levels, 0);
  // Strong first merge, as in Fig. 5 (merging rate ≈ 50%+ after stage 1).
  EXPECT_LT(result.trace.front().num_modules,
            result.trace.front().level_vertices);
}

TEST(DistInfomap, PhaseWorkCountersPopulated) {
  const auto gg = gen::lfr_lite({}, 31);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const int p = 4;
  const auto result = dc::distributed_infomap(g, config_for(p));
  for (int ph = 0; ph < dc::kNumPhases; ++ph)
    ASSERT_EQ(result.work[ph].size(), static_cast<std::size_t>(p));
  std::uint64_t find_arcs = 0, swap_bytes = 0, bcast_msgs = 0;
  for (int r = 0; r < p; ++r) {
    find_arcs += result.work[0][r].arcs_scanned;
    bcast_msgs += result.work[1][r].messages;
    swap_bytes += result.work[2][r].bytes;
  }
  EXPECT_GT(find_arcs, 0u);
  EXPECT_GT(swap_bytes, 0u);
  EXPECT_GT(bcast_msgs, 0u);  // delegate consensus communicates
}

TEST(DistInfomap, HandlesHubGraph) {
  // BA graphs have strong hubs → exercises delegates hard.
  const auto gg = gen::barabasi_albert(1200, 2, 3);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  const auto seq = dc::sequential_infomap(g);
  const auto dist = dc::distributed_infomap(g, config_for(4));
  EXPECT_NEAR(dist.codelength,
              dc::codelength_of_partition(fg, dist.assignment), 1e-9);
  EXPECT_LT(dist.codelength, seq.singleton_codelength);
  EXPECT_LT(dist.codelength, seq.codelength * 1.10);
}

TEST(DistInfomap, IsolatedVerticesSurvive) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}, {0, 2}}, 7);  // 3..6 isolated
  const auto result = dc::distributed_infomap(g, config_for(2));
  EXPECT_EQ(result.assignment.size(), 7u);
  // Isolated vertices keep distinct singleton modules.
  for (dg::VertexId v = 3; v < 7; ++v)
    for (dg::VertexId w = v + 1; w < 7; ++w)
      EXPECT_NE(result.assignment[v], result.assignment[w]);
}

TEST(DistInfomap, ExplicitPartitionOverloadAgrees) {
  const auto gg = gen::ring_of_cliques(6, 5, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto cfg = config_for(3);
  const auto part = dinfomap::partition::make_delegate(
      g, 3, dc::resolve_degree_threshold(g, cfg));
  const auto a = dc::distributed_infomap(g, part, cfg);
  const auto b = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(DistInfomap, RejectsRankMismatch) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}});
  const auto part = dinfomap::partition::make_delegate(g, 2);
  auto cfg = config_for(3);
  EXPECT_THROW(dc::distributed_infomap(g, part, cfg),
               dinfomap::ContractViolation);
}

TEST(DistInfomap, RejectsMoreThanOneThreadPerRank) {
  const auto g = dg::build_csr({{0, 1}, {1, 2}});
  auto cfg = config_for(2);
  cfg.threads_per_rank = 2;
  EXPECT_THROW(dc::distributed_infomap(g, cfg), dinfomap::ContractViolation);
}

TEST(DistInfomap, MinLabelBreaksTwoVertexBoundaryOscillation) {
  // The §3.4 anti-bouncing scenario in miniature: two cliques joined by a
  // single bridge, partitioned across two ranks (ownership is v mod p, so
  // the bridge endpoints land on different ranks). In a synchronous round
  // each bridge endpoint may greedily move into the other's module and swap
  // forever; the minimum-label strategy (dist_infomap.cpp, boundary-move
  // gate) must let exactly one side through so the rounds converge.
  dg::EdgeList edges;
  const auto clique = [&](dg::VertexId base) {
    for (dg::VertexId i = 0; i < 6; ++i)
      for (dg::VertexId j = i + 1; j < 6; ++j)
        edges.push_back({base + i, base + j, 1.0});
  };
  clique(0);
  clique(6);
  edges.push_back({5, 6, 1.0});  // the bridge: 5 is odd-rank, 6 even-rank at p=2
  const auto g = dg::build_csr(edges, 12);

  auto cfg = config_for(2);
  cfg.min_label = true;
  const auto with = dc::distributed_infomap(g, cfg);
  EXPECT_LT(with.stage1_rounds, dc::kMaxRounds)
      << "min_label on: rounds must converge, not run to the cap";
  EXPECT_EQ(with.num_modules(), 2u);
  EXPECT_LT(with.codelength, with.singleton_codelength);

  // With the strategy off the protocol must still terminate (the round cap
  // and kRoundTheta bound any residual bouncing) and produce a valid result.
  cfg.min_label = false;
  const auto without = dc::distributed_infomap(g, cfg);
  EXPECT_LE(without.stage1_rounds, dc::kMaxRounds);
  EXPECT_EQ(without.assignment.size(), g.num_vertices());
  EXPECT_LT(without.codelength, without.singleton_codelength);
}

TEST(DistInfomap, MinLabelAblationStillConverges) {
  const auto gg = gen::lfr_lite({}, 37);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  auto cfg = config_for(4);
  cfg.min_label = false;
  const auto result = dc::distributed_infomap(g, cfg);
  EXPECT_LT(result.codelength, result.singleton_codelength);
}

TEST(DistInfomap, WholeModuleSwapTerminatesConsistently) {
  // Termination, a valid gathered assignment, and a reported L that matches
  // the exact rescoring and beats the singletons.
  const auto gg = gen::lfr_lite({}, 41);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  const auto result = dc::distributed_infomap(g, config_for(4));
  EXPECT_EQ(result.assignment.size(), g.num_vertices());
  EXPECT_NEAR(result.codelength,
              dc::codelength_of_partition(fg, result.assignment), 1e-9);
  EXPECT_LT(result.codelength, result.singleton_codelength);
}

TEST(DistInfomap, ExactHubMovesKeepsInvariants) {
  // The exact-hub-moves extension must keep every consistency property; on
  // hub-heavy graphs it should match or beat the paper's local-proposal
  // consensus.
  const auto gg = gen::barabasi_albert(1200, 2, 3);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  auto base_cfg = config_for(4);
  auto exact_cfg = base_cfg;
  exact_cfg.exact_hub_moves = true;
  const auto base = dc::distributed_infomap(g, base_cfg);
  const auto exact = dc::distributed_infomap(g, exact_cfg);
  EXPECT_NEAR(exact.codelength,
              dc::codelength_of_partition(fg, exact.assignment), 1e-9);
  EXPECT_LT(exact.codelength, exact.singleton_codelength);
  // Not a strict guarantee per instance, but exactness should not be much
  // worse than the heuristic.
  EXPECT_LT(exact.codelength, base.codelength * 1.05);
}

TEST(DistInfomap, ExactHubMovesDeterministic) {
  const auto gg = gen::barabasi_albert(800, 2, 9);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  auto cfg = config_for(3);
  cfg.exact_hub_moves = true;
  const auto a = dc::distributed_infomap(g, cfg);
  const auto b = dc::distributed_infomap(g, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
}

class DistRankSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, DistRankSweep, ::testing::Values(1, 2, 3, 5, 8));

TEST_P(DistRankSweep, CodelengthConsistencyOnSbm) {
  const auto gg = gen::sbm(200, 4, 0.25, 0.01, 43);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto fg = dc::make_flow_graph(g);
  const auto result = dc::distributed_infomap(g, config_for(GetParam()));
  EXPECT_NEAR(result.codelength,
              dc::codelength_of_partition(fg, result.assignment), 1e-9);
  EXPECT_LT(result.codelength, result.singleton_codelength);
}

TEST(DistInfomap, SwapRoundChargesEveryLocalArc) {
  // SwapBoundaryInfo rebuilds module statistics from a scan of every local
  // arc, so one swap round must charge exactly the local arc count per rank.
  const auto gg = gen::barabasi_albert(1500, 3, 5);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  for (int p : {1, 2, 4}) {
    auto cfg = config_for(p);
    const auto part = dinfomap::partition::make_delegate(
        g, p, dc::resolve_degree_threshold(g, cfg));
    std::vector<std::uint64_t> charged(p), local(p);
    dinfomap::comm::Runtime::run(p, [&](dinfomap::comm::Comm& comm) {
      dc::detail::DistRank rank(comm, g, part, cfg);
      charged[comm.rank()] = dc::detail::DistRankTestPeer::swap_round_arcs(rank);
      local[comm.rank()] = dc::detail::DistRankTestPeer::local_arcs(rank);
    });
    EXPECT_EQ(charged, local) << "p=" << p;
    EXPECT_EQ(std::accumulate(charged.begin(), charged.end(), std::uint64_t{0}),
              g.num_arcs())
        << "p=" << p;
  }
}

TEST(DistInfomap, ExactAndOrderIndependentAcrossRanksEnginesThreads) {
  // The reported L is an exact function of the gathered assignment (to
  // rounding) for every rank count and engine.
  const auto lfr = gen::lfr_lite({}, 11);
  const auto ba = gen::barabasi_albert(1000, 2, 13);
  for (const auto* gg : {&lfr, &ba}) {
    const auto g = dg::build_csr(gg->edges, gg->num_vertices);
    const auto fg = dc::make_flow_graph(g);
    for (int p : {1, 2, 3, 4}) {
      for (bool async : {false, true}) {
        auto cfg = config_for(p);
        cfg.async = async;
        const auto one = dc::distributed_infomap(g, cfg);
        const double ref = dc::codelength_of_partition(fg, one.assignment);
        EXPECT_LE(std::abs(one.codelength - ref), 1e-12 * std::abs(ref))
            << "p=" << p << " async=" << async << " L=" << one.codelength
            << " ref=" << ref;
      }
    }
  }
}

TEST(DistInfomap, MergeShipsEachCoarsePairOncePerSender) {
  // merge_level combines coarse arcs at the sender: each rank ships one
  // triple per distinct (coarse source, coarse target) pair of its local
  // graph, and the rebuilt graph's arc count is charged as built.
  const auto gg = gen::sbm(400, 8, 0.2, 0.01, 17);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  constexpr int p = 4;
  auto cfg = config_for(p);
  const auto part = dinfomap::partition::make_delegate(
      g, p, dc::resolve_degree_threshold(g, cfg));
  dinfomap::obs::ObsOptions opt;
  opt.enabled = true;
  opt.trace = false;
  opt.watchdog = false;
  dinfomap::obs::Recorder recorder(p, opt);
  std::vector<std::uint64_t> expected(p), fine(p), built(p);
  dinfomap::comm::Runtime::run(p, [&](dinfomap::comm::Comm& comm) {
    dc::detail::DistRank rank(comm, g, part, cfg, &recorder);
    fine[comm.rank()] = dc::detail::DistRankTestPeer::local_arcs(rank);
    expected[comm.rank()] =
        dc::detail::DistRankTestPeer::distinct_pairs_then_merge(rank, 2);
    built[comm.rank()] = dc::detail::DistRankTestPeer::local_arcs(rank);
  });
  for (int r = 0; r < p; ++r) {
    const auto& counters = recorder.all_metrics()[r].counters();
    EXPECT_EQ(counters.at("merge.coarse_arcs_shipped").value, expected[r])
        << "rank " << r;
    EXPECT_EQ(counters.at("merge.coarse_arcs_built").value, built[r])
        << "rank " << r;
    // Two rounds on a planted partition leave real modules to combine.
    EXPECT_LT(expected[r], fine[r]) << "rank " << r;
  }
}

TEST(DistInfomap, SettledVerticesStayOutOfTheSyncRound) {
  // Two planted communities, a triangle and nine isolated ids (51..59), so
  // every rank holds settled vertices at both levels. They get no module
  // table entry and no home slot, yet the alive count includes them; a
  // stage-2 round costs exactly its three alltoallvs (the codelength sums
  // ride the reply), and other_update communicates nothing. A merge costs
  // four collectives: the live-id allgatherv (a gather and a broadcast), one
  // packed exchange of coarse arcs and node flows, and the next level's
  // subscription alltoallv.
  auto gg = gen::sbm(48, 2, 0.5, 0.04, 5);
  gg.edges.push_back({48, 49, 1.0});
  gg.edges.push_back({49, 50, 1.0});
  gg.edges.push_back({48, 50, 1.0});
  const auto g = dg::build_csr(gg.edges, 60);
  constexpr int p = 4;
  auto cfg = config_for(p);
  cfg.degree_threshold = 14;
  const auto part = dinfomap::partition::make_delegate(g, p, cfg.degree_threshold);
  std::vector<dc::detail::DistRankTestPeer::SettledProbe> probes(p);
  dinfomap::comm::Runtime::run(p, [&](dinfomap::comm::Comm& comm) {
    dc::detail::DistRank rank(comm, g, part, cfg);
    probes[comm.rank()] = dc::detail::DistRankTestPeer::settled_probe(rank);
  });
  std::uint64_t settled[2] = {0, 0};
  for (int r = 0; r < p; ++r) {
    const auto& pr = probes[r];
    EXPECT_GT(pr.settled[0], 0u) << "rank " << r;
    EXPECT_EQ(pr.in_tables, 0u) << "rank " << r;
    EXPECT_EQ(pr.other_collectives, 0u) << "rank " << r;
    EXPECT_EQ(pr.round_collectives, 3u) << "rank " << r;
    EXPECT_EQ(pr.merge_collectives, 4u) << "rank " << r;
    for (int level : {0, 1}) {
      settled[level] += pr.settled[level];
      // Every vertex is its own module right after a (re)build.
      EXPECT_EQ(pr.alive[level], pr.level_n[level]) << "rank " << r;
    }
  }
  EXPECT_EQ(probes[0].level_n[0], 60u);
  EXPECT_LT(probes[0].level_n[1], 60u);
  EXPECT_EQ(settled[0], 9u);
  EXPECT_EQ(settled[1], 9u);  // settled vertices stay settled

  // The module count of every level row counts the isolated ids too.
  for (const bool async : {false, true}) {
    cfg.async = async;
    const auto result = dc::distributed_infomap(g, cfg);
    EXPECT_EQ(result.trace.back().num_modules, result.num_modules())
        << "async=" << async;
    std::set<dg::VertexId> isolated_modules;
    for (dg::VertexId v = 51; v < 60; ++v)
      isolated_modules.insert(result.assignment[v]);
    EXPECT_EQ(isolated_modules.size(), 9u) << "async=" << async;
  }
}

namespace {
using dc::CoarseArc;
using Peer = dc::detail::DistRankTestPeer;

/// The global-sort construction build_local_graph replaced, kept as the
/// oracle: sort every triple, combine duplicates, take the vertex universe
/// from a sort of all endpoints plus the owned vertices.
Peer::LocalGraph global_sort_reference(
    const std::vector<std::vector<CoarseArc>>& runs, int p, int r,
    dg::VertexId level_n) {
  std::vector<CoarseArc> triples;
  for (const auto& run : runs) triples.insert(triples.end(), run.begin(), run.end());
  std::sort(triples.begin(), triples.end(),
            [](const CoarseArc& a, const CoarseArc& b) {
              return a.source != b.source ? a.source < b.source
                                          : a.target < b.target;
            });
  std::vector<CoarseArc> combined;
  for (const auto& t : triples) {
    if (!combined.empty() && combined.back().source == t.source &&
        combined.back().target == t.target)
      combined.back().flow += t.flow;
    else
      combined.push_back(t);
  }
  Peer::LocalGraph g;
  for (const auto& t : combined) {
    g.global.push_back(t.source);
    g.global.push_back(t.target);
  }
  for (auto v = static_cast<dg::VertexId>(r); v < level_n;
       v += static_cast<dg::VertexId>(p))
    g.global.push_back(v);
  std::sort(g.global.begin(), g.global.end());
  g.global.erase(std::unique(g.global.begin(), g.global.end()), g.global.end());
  const auto local = [&g](dg::VertexId v) {
    return static_cast<std::uint32_t>(
        std::lower_bound(g.global.begin(), g.global.end(), v) - g.global.begin());
  };
  g.self_flow.assign(g.global.size(), 0.0);
  g.out_flow.assign(g.global.size(), 0.0);
  g.arc_off.assign(g.global.size() + 1, 0);
  for (const auto& t : combined) {
    if (t.source == t.target) {
      g.self_flow[local(t.source)] += t.flow;
    } else {
      ++g.arc_off[local(t.source) + 1];
      g.arcs.emplace_back(local(t.target), t.flow);
      g.out_flow[local(t.source)] += t.flow;
    }
  }
  for (std::size_t i = 1; i < g.arc_off.size(); ++i) g.arc_off[i] += g.arc_off[i - 1];
  return g;
}
}  // namespace

TEST(DistInfomap, BuildLocalGraphMatchesGlobalSortReference) {
  // Runs with unsorted suffixes, duplicates within and across runs, self-flow
  // triples and isolated owned vertices build the same local graph as the
  // global sort. Flows are dyadic and small, so every sum is exact in any
  // order and the comparison can be bitwise.
  constexpr int p = 2;
  constexpr dg::VertexId level_n = 40;
  const auto gg = gen::ring_of_cliques(4, 4, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  const auto cfg = config_for(p);
  const auto part = dinfomap::partition::make_delegate(
      g, p, dc::resolve_degree_threshold(g, cfg));
  dinfomap::comm::Runtime::run(p, [&](dinfomap::comm::Comm& comm) {
    const auto r = static_cast<dg::VertexId>(comm.rank());
    dc::detail::DistRank rank(comm, g, part, cfg);
    // Hand-written case: owned sources r, r+2, r+4, r+6; r+8.. stay isolated
    // unless some arc reaches them.
    const std::vector<std::vector<CoarseArc>> fixed = {
        {{r, 3, 0.5}, {r, 5, 0.25}, {r + 2, r + 2, 0.125}, {r + 4, 1, 1.0},
         // unsorted suffix, with a duplicate of (r, 3) inside the run
         {r, 7, 0.5}, {r + 2, 9, 0.75}, {r, 3, 0.25}},
        {{r, 3, 0.125}, {r + 2, r + 2, 0.25}, {r + 6, 11, 0.5}},
        {},
        {{r + 6, 11, 2.0}, {r + 2, 9, 0.0625}, {r, 5, 1.5}, {r + 4, r + 4, 0.5}},
    };
    const auto want = global_sort_reference(fixed, p, static_cast<int>(r), level_n);
    ASSERT_EQ(Peer::build(rank, fixed, level_n), want) << "rank " << r;
    ASSERT_EQ(want.arcs.size(), 6u);  // (r,3) (r,5) (r,7) (r+2,9) (r+4,1) (r+6,11)

    // Randomized runs: each a sorted prefix plus a shuffled suffix.
    dinfomap::util::Xoshiro256 rng(1234 + r);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::vector<CoarseArc>> runs(1 + rng.bounded(5));
      for (auto& run : runs) {
        const auto len = rng.bounded(30);
        for (std::uint64_t i = 0; i < len; ++i) {
          const auto src = static_cast<dg::VertexId>(
              r + p * rng.bounded(level_n / p));
          const auto dst = rng.bounded(4) == 0
                               ? src
                               : static_cast<dg::VertexId>(rng.bounded(level_n));
          run.push_back({src, dst, static_cast<double>(1 + rng.bounded(8)) / 8});
        }
        const auto cut = static_cast<std::ptrdiff_t>(rng.bounded(len + 1));
        std::sort(run.begin(), run.begin() + cut,
                  [](const CoarseArc& a, const CoarseArc& b) {
                    return a.source != b.source ? a.source < b.source
                                                : a.target < b.target;
                  });
      }
      EXPECT_EQ(Peer::build(rank, runs, level_n),
                global_sort_reference(runs, p, static_cast<int>(r), level_n))
          << "rank " << r << " trial " << trial;
    }
  });
}

TEST(DistInfomap, MissingCandidateModuleIsAContractViolation) {
  // The homes' reply brings every module a held vertex references, so a
  // candidate missing from the local table is a broken invariant: the move
  // search throws instead of skipping it. Isolated ids 200..207 are
  // settled, so no table holds their modules, at any p.
  const auto gg = gen::sbm(200, 4, 0.2, 0.02, 7);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices + 8);
  for (int p : {1, 2, 4}) {
    const auto cfg = config_for(p);
    const auto part = dinfomap::partition::make_delegate(
        g, p, dc::resolve_degree_threshold(g, cfg));
    std::vector<int> threw(p, 0);
    dinfomap::comm::Runtime::run(p, [&](dinfomap::comm::Comm& comm) {
      dc::detail::DistRank rank(comm, g, part, cfg);
      threw[comm.rank()] = Peer::missing_candidate_throws(rank) ? 1 : 0;
    });
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(threw[r], 1) << "p=" << p << " rank " << r;
  }
}

TEST(DistInfomap, BoundaryBitsAndModuleArrayStayExact) {
  // After setup and after every merge each arc's boundary bit equals "the
  // target is not owned here" and each vertex's split bit equals the split
  // rule; after every round and merge each held vertex's module_of_ entry
  // equals its owner's, and the owned entries a round changed are exactly
  // its reported moves. The degree threshold makes hubs at every p.
  const auto gg = gen::sbm(240, 6, 0.2, 0.02, 29);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices + 5);
  for (int p : {1, 2, 3, 4}) {
    auto cfg = config_for(p);
    cfg.degree_threshold = 16;
    const auto part = dinfomap::partition::make_delegate(
        g, p, dc::resolve_degree_threshold(g, cfg));
    std::vector<Peer::LayoutProbe> probes(p);
    dinfomap::comm::Runtime::run(p, [&](dinfomap::comm::Comm& comm) {
      dc::detail::DistRank rank(comm, g, part, cfg);
      probes[comm.rank()] = Peer::layout_probe(rank);
    });
    std::uint64_t split = 0;
    std::uint64_t hubs = 0;
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(probes[r].checks, 4u) << "p=" << p << " rank " << r;
      EXPECT_EQ(probes[r].bad_boundary, 0u) << "p=" << p << " rank " << r;
      EXPECT_EQ(probes[r].bad_split, 0u) << "p=" << p << " rank " << r;
      split += probes[r].split;
      hubs += probes[r].hubs;
      EXPECT_EQ(probes[r].bad_module, 0u) << "p=" << p << " rank " << r;
      EXPECT_EQ(probes[r].bad_moves, 0u) << "p=" << p << " rank " << r;
    }
    // No peers, no conflicts: at p = 1 nothing is split, so the sync round
    // is the one it was before sub-rounds. Hub arcs are boundary arcs at
    // p = 1 too, which is why split is not keyed on the boundary bit.
    EXPECT_GT(hubs, 0u) << "p=" << p;
    if (p == 1) {
      EXPECT_EQ(split, 0u);
    } else {
      EXPECT_GT(split, 0u) << "p=" << p;
    }
  }
}

TEST(DistInfomap, SplitVerticesMoveOnlyInTheirSubRound) {
  // A vertex with a neighbour on another rank, or a hub, moves in a sync
  // round only if sub_round_class puts it in that round's class: on a graph
  // with hubs, over three levels of rounds, every split vertex that changed
  // module (own move or hub winner) was in class.
  const auto gg = gen::barabasi_albert(600, 3, 21);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  for (int p : {2, 3, 4}) {
    const auto cfg = config_for(p);
    const auto part = dinfomap::partition::make_delegate(
        g, p, dc::resolve_degree_threshold(g, cfg));
    std::vector<Peer::SubRoundProbe> probes(p);
    dinfomap::comm::Runtime::run(p, [&](dinfomap::comm::Comm& comm) {
      dc::detail::DistRank rank(comm, g, part, cfg);
      probes[comm.rank()] = Peer::sub_round_probe(rank);
    });
    std::uint64_t moved = 0;
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(probes[r].rounds, 12u) << "p=" << p << " rank " << r;
      EXPECT_EQ(probes[r].out_of_class, 0u) << "p=" << p << " rank " << r;
      moved += probes[r].moved_split;
    }
    EXPECT_GT(moved, 0u) << "p=" << p;
  }
}

TEST(DistInfomap, HomeReplyIsTheOneCarrierOfModuleStats) {
  // Module statistics reach a rank only in its homes' reply: after every
  // swap each module a held vertex references is in the local table with
  // exactly its home's statistics, and the live homed modules carry the
  // whole visit probability. Both engines, both hub paths; the move search
  // and the exact hub phase throw on a missing module, so every lookup
  // between the swaps is covered too. Hubs, ghosts and isolated (settled)
  // ids all occur.
  const auto gg = gen::barabasi_albert(600, 3, 21);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices + 4);
  for (const bool async : {false, true}) {
    for (const bool exact : {false, true}) {
      for (int p : {1, 2, 3, 4}) {
        auto cfg = config_for(p);
        cfg.async = async;
        cfg.exact_hub_moves = exact;
        const auto part = dinfomap::partition::make_delegate(
            g, p, dc::resolve_degree_threshold(g, cfg));
        std::vector<Peer::CarrierProbe> probes(p);
        dinfomap::comm::Runtime::run(p, [&](dinfomap::comm::Comm& comm) {
          dc::detail::DistRank rank(comm, g, part, cfg);
          probes[comm.rank()] = Peer::carrier_probe(rank);
        });
        for (int r = 0; r < p; ++r) {
          const auto& pr = probes[r];
          const auto where = ::testing::Message()
                             << "async=" << async << " exact=" << exact
                             << " p=" << p << " rank " << r;
          EXPECT_GE(pr.swaps, 7u) << where;
          EXPECT_EQ(pr.missing, 0u) << where;
          EXPECT_EQ(pr.stale, 0u) << where;
          EXPECT_LE(pr.max_mass_error, 1e-12) << where;
        }
      }
    }
  }
}

TEST(DistInfomap, WorseLevelRestoresItsSingletons) {
  // A level that ends above the L it began with is undone: its vertices go
  // back to their singleton modules, L is the level's starting value bit for
  // bit, the table is the homes' again, and nothing merges (a level that
  // did not get worse is kept, or the GoldenPin results would move). Ring of
  // cliques: stage 1 finds modules, so putting all of level 1 in one module
  // is far worse than its singletons.
  const auto gg = gen::ring_of_cliques(10, 5, 0);
  const auto g = dg::build_csr(gg.edges, gg.num_vertices);
  for (int p : {1, 2, 3}) {
    const auto cfg = config_for(p);
    const auto part = dinfomap::partition::make_delegate(
        g, p, dc::resolve_degree_threshold(g, cfg));
    std::vector<Peer::UndoProbe> probes(p);
    dinfomap::comm::Runtime::run(p, [&](dinfomap::comm::Comm& comm) {
      dc::detail::DistRank rank(comm, g, part, cfg);
      probes[comm.rank()] = Peer::undo_probe(rank);
    });
    for (int r = 0; r < p; ++r) {
      const auto& pr = probes[r];
      const auto where = ::testing::Message() << "p=" << p << " rank " << r;
      ASSERT_GT(pr.worse, pr.before) << where;
      EXPECT_EQ(pr.after, pr.before) << where;
      EXPECT_EQ(pr.alive, pr.level_n) << where;
      EXPECT_EQ(pr.not_singleton, 0u) << where;
      EXPECT_EQ(pr.carrier.missing, 0u) << where;
      EXPECT_EQ(pr.carrier.stale, 0u) << where;
    }
  }
}
