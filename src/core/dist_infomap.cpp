// Distributed Infomap rounds (Alg. 2), information swapping (Alg. 3),
// distributed merging (§3.5), and the job driver.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>

#include "comm/runtime.hpp"
#include "core/dist_internal.hpp"
#include "partition/metrics.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"

namespace dinfomap::core::detail {

namespace {

/// Absolute slack added to can_prune's margin bound: the analytic q-drift
/// bound holds over the reals, while the ΔL sums are evaluated in floating
/// point. Every intermediate is O(1), so a few hundred ulps of 1.0 dominates
/// the accumulated rounding; margins below this never prune (conservative).
constexpr double kFpSlack = 1e-13;

}  // namespace

// ---------------------------------------------------------------------------
// Move search
// ---------------------------------------------------------------------------

bool DistRank::min_label_yields(ModuleId cur, ModuleId target) {
  // §3.4 anti-bouncing, per-pair deterministic variant. The original
  // minimum-label strategy gated larger-label boundary moves on the parity
  // of a shared round counter — a hidden global input that stops being
  // meaningful when vertices are evaluated at different effective times
  // (async drains). Replace the counter with a *consistent orientation*
  // over the module pair: a boundary move yields iff it goes into the
  // smaller module (by flow mass, ties broken by the label order). Of any
  // conflicting pair of swaps exactly one
  // direction is admissible at a time — the order is total, so oscillation
  // cannot sustain and there are no preference cycles — and the decision is
  // a pure function of state every rank holds identically (module stats are
  // exact after each sync, and inside a round/epoch every rank applies the
  // same deterministic updates). Unlike a fixed random orientation, sizing
  // the order by mass keeps consolidation alive: when a move into a smaller
  // module is blocked, the reverse merge — the small module's members
  // absorbing into the large one — is the admissible direction, and that is
  // the direction greedy map-equation search favors anyway.
  const ModuleStats* c = modules_.find(cur);
  const ModuleStats* t = modules_.find(target);
  DINFOMAP_REQUIRE_MSG(c != nullptr && t != nullptr,
                       "min-label guard consulted for an unsynced module");
  // Singleton endpoints never yield: during the consolidation phase every
  // greedy merge should be admissible (this is where the old free rounds did
  // their work), and a conflicting same-round pair of singleton moves is a
  // relabeling, not a codelength oscillation.
  if (c->num_members <= 1 || t->num_members <= 1) return false;
  const double sc = c->sum_pr;
  const double st = t->sum_pr;
  if (st != sc) return st < sc;  // yield on moves into the smaller module
  return target > cur;           // mass tie: yield away from the smaller label
}

bool DistRank::can_prune(std::uint32_t li) const {
  const std::uint64_t le = last_eval_[li];
  if (le == 0) return false;                 // never evaluated at this level
  if (assign_stamp_[li] > le) return false;  // we moved (or were moved)
  // The min-label guard needs no dedicated staleness state: its verdict is a
  // pure function of the (cur, candidate) module pair and the candidate's
  // boundary flag, and both are functions of vertex assignments already
  // covered by the stamp checks below.
  if (stat_stamp_[module_of_[li]] > le) return false;
  for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1]; ++a) {
    const std::uint32_t t = arcs_[a].target;
    if (assign_stamp_[t] > le) return false;  // candidate set changed
    if (stat_stamp_[module_of_[t]] > le) return false;
  }
  // The candidate set, every candidate's statistics, and our own module are
  // bitwise what the last evaluation saw; only the global q_total may have
  // drifted. Identical q reproduces the evaluation bit-for-bit; otherwise
  // the recorded rejection margin must dominate the worst-case ΔL shift:
  // q enters ΔL only through plogp(q+δq) − plogp(q) with |δq| ≤ 2·f_u, so by
  // the mean-value theorem |Δ(q1) − Δ(q0)| ≤ |q1−q0|·max|log2(1+δq/q*)|, and
  // for qlo ≥ 4·f_u (⇒ |δq/q*| ≤ ½, where |log2(1+x)| ≤ 2|x|/ln2 < 2.89|x|)
  // 6·f_u/qlo over-covers the derivative. Below that q regime the bound is
  // invalid and the vertex is simply re-evaluated.
  const double q0 = last_q_[li];
  const double q1 = q_total_;
  if (q1 == q0) return true;
  const double f_u = verts_[li].out_flow;
  const double qlo = q0 < q1 ? q0 : q1;
  if (!(qlo >= 4.0 * f_u)) return false;
  const double shift = (q1 > q0 ? q1 - q0 : q0 - q1) * 6.0 * f_u / qlo;
  return last_margin_[li] > shift + kFpSlack;
}

bool DistRank::best_move_for(std::uint32_t li, BestMove& best) {
  const LocalVertex& lv = verts_[li];
  const ModuleId cur = module_of_[li];

  // Flow from li to each neighbor module, and whether that module was
  // reached through a non-owned vertex (⇒ boundary module, §3.4). The
  // accumulator is rank-level scratch: allocation-free per vertex, cleared
  // in O(#touched), iterated in deterministic first-touch (= arc) order.
  // Each arc costs two reads, the arc itself and its target's module id:
  // the arc carries the boundary bit, so no neighbor's LocalVertex is read.
  // Along the row, the module id 8 arcs ahead and the accumulator slot 4
  // arcs ahead are prefetched (hints on in-range elements only).
  nbflow_.clear();
  const std::uint32_t row_begin = arc_off_[li];
  const std::uint32_t row_end = arc_off_[li + 1];
  for (std::uint32_t a = row_begin; a < row_end; ++a) {
    if (a + 8 < row_end) util::prefetch_read(&module_of_[arcs_[a + 8].target]);
    if (a + 4 < row_end) nbflow_.prefetch(module_of_[arcs_[a + 4].target]);
    const LocalArc& arc = arcs_[a];
    NeighborFlow& e = nbflow_[module_of_[arc.target]];
    e.flow += arc.flow;
    e.boundary = static_cast<std::uint8_t>(e.boundary | arc.boundary);
  }
  wk(Phase::kFindBestModule).arcs_scanned += row_end - row_begin;
  if (nbflow_.empty()) return false;
  // Every candidate is known now: start its table load before the first ΔL
  // evaluation needs it.
  for (const ModuleId mod : nbflow_.keys()) modules_.prefetch(mod);

  const double f_to_old = nbflow_.value_or(cur, {}).flow;
  const ModuleStats* cur_stats = modules_.find(cur);
  DINFOMAP_REQUIRE_MSG(cur_stats != nullptr,
                       "vertex's own module missing from local table");

  double best_delta = -kMoveEpsilon;
  ModuleId best_target = cur;
  MoveOutcome best_outcome;
  // Smallest rejection distance over the evaluated candidates; the activity
  // tracker records it so a later round can prove the rejection still holds
  // under bounded q-drift without re-evaluating (see can_prune).
  double reject_margin = std::numeric_limits<double>::infinity();

  for (const ModuleId mod : nbflow_.keys()) {
    if (mod == cur) continue;
    const NeighborFlow& e = *nbflow_.find(mod);
    const ModuleStats* stats = modules_.find(mod);
    if (stats == nullptr) {
      // Candidate module not yet synced into the local table; the vertex
      // cannot consider it this round. Counted (not silent) so the invariant
      // watchdog can flag pathological skip rates.
      ++skipped_unsynced_round_;
      continue;
    }
    // Anti-bouncing (§3.4, minimum-label strategy of Lu et al.): in a
    // synchronous round two vertices on different ranks can swap into each
    // other's modules and oscillate forever. For any (cur, target) pair of
    // *boundary* modules one fixed direction yields (min_label_yields) — of
    // any conflicting pair exactly one side moves; blocked merges remain
    // reachable from the yielding side or at the next level.
    if (cfg_.min_label && e.boundary && min_label_yields(cur, mod)) continue;
    MoveDelta d;
    d.p_u = lv.node_flow;
    d.f_u = lv.out_flow;
    d.f_to_old = f_to_old;
    d.f_to_new = e.flow;
    d.old_stats = *cur_stats;
    d.new_stats = *stats;
    d.q_total = q_total_;
    const MoveOutcome out = eval_move(d);
    ++wk(Phase::kFindBestModule).delta_evals;
    if (out.delta_codelength >= -kMoveEpsilon) {
      const double m = out.delta_codelength + kMoveEpsilon;
      if (m < reject_margin) reject_margin = m;
      continue;
    }
    reject_margin = 0.0;  // an accepting candidate exists; never prune on margin
    if (out.delta_codelength < best_delta - 1e-15 ||
        (out.delta_codelength < best_delta + 1e-15 && mod < best_target)) {
      best_delta = out.delta_codelength;
      best_target = mod;
      best_outcome = out;
    }
  }
  const bool found = best_target != cur;
  note_evaluated(li, found, reject_margin);
  if (!found) return false;
  best.target = best_target;
  best.delta_l = best_delta;
  best.outcome = best_outcome;
  return true;
}

void DistRank::apply_local_move(std::uint32_t li, const BestMove& mv) {
  const ModuleId old = module_of_[li];
  modules_[old] = mv.outcome.old_after;
  modules_[mv.target] = mv.outcome.new_after;
  q_total_ += mv.outcome.delta_q_total;
  if (cfg_.async) {
    // One event: the vertex changed assignment and both module tables
    // changed statistics, so all three share the tick.
    const std::uint64_t t = tick();
    stamp_assign(li, t);
    stamp_stats(old, t);
    stamp_stats(mv.target, t);
  }
  module_of_[li] = mv.target;
  wk(Phase::kOther).module_updates += 2;
}

void DistRank::prefetch_visit(const std::vector<std::uint32_t>& order,
                              std::size_t i) const {
  const std::size_t n = order.size();
  if (i + 16 < n) {
    const std::uint32_t v = order[i + 16];
    util::prefetch_read(&arc_off_[v]);
    util::prefetch_read(&verts_[v]);
    util::prefetch_read(&module_of_[v]);
  }
  if (i + 8 < n) {
    const std::uint32_t v = order[i + 8];
    const std::uint32_t begin = arc_off_[v];
    const std::uint32_t end = arc_off_[v + 1];
    if (begin < end) {
      util::prefetch_read(&arcs_[begin]);
      util::prefetch_read(&arcs_[std::min(begin + 4, end - 1)]);
    }
    modules_.prefetch(module_of_[v]);
  }
  if (i + 4 < n) {
    const std::uint32_t v = order[i + 4];
    const std::uint32_t begin = arc_off_[v];
    const std::uint32_t end = std::min(arc_off_[v + 1], begin + 8);
    for (std::uint32_t a = begin; a < end; ++a)
      util::prefetch_read(&module_of_[arcs_[a].target]);
  }
  if (i + 2 < n) {
    const std::uint32_t v = order[i + 2];
    const std::uint32_t begin = arc_off_[v];
    const std::uint32_t end = std::min(arc_off_[v + 1], begin + 4);
    for (std::uint32_t a = begin; a < end; ++a)
      nbflow_.prefetch(module_of_[arcs_[a].target]);
  }
}

std::uint64_t DistRank::find_best_modules(bool with_delegates,
                                          util::Xoshiro256& rng,
                                          std::vector<HubProposal>& proposals) {
  PhaseScope scope(*this, Phase::kFindBestModule);
  std::vector<std::uint32_t> order = movable_;
  util::deterministic_shuffle(order, rng);

  // Sub-rounds: of the vertices whose moves can conflict across ranks, only
  // this round's class is evaluated, so two neighbours on different ranks
  // move in the same round only when both hash into it.
  const int sub_round = round_index_ % kSubRounds;
  std::uint64_t moves = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    prefetch_visit(order, i);
    const std::uint32_t li = order[i];
    const bool is_hub = verts_[li].kind == Kind::kDelegate;
    if (is_hub && !with_delegates) continue;
    if (is_hub && cfg_.exact_hub_moves) continue;  // handled by the exact phase
    if (verts_[li].split &&
        sub_round_class(cfg_.seed, current_level_, round_index_,
                        verts_[li].global) != sub_round)
      continue;
    BestMove mv;
    if (!best_move_for(li, mv)) continue;
    if (is_hub) {
      proposals.push_back({.hub = verts_[li].global,
                           .rank = comm_.rank(),
                           .target = mv.target,
                           .delta_l = mv.delta_l});
    } else {
      apply_local_move(li, mv);
      ++moves;
      mark_dirty(li);
    }
  }
  return moves;
}

// ---------------------------------------------------------------------------
// Phase 2: delegate consensus (Alg. 2 line 4)
// ---------------------------------------------------------------------------

std::uint64_t DistRank::apply_hub_winners(const std::vector<HubProposal>& winners) {
  std::uint64_t hub_moves = 0;
  for (const HubProposal& win : winners) {
    if (win.delta_l >= -kMoveEpsilon) continue;
    ++hub_moves;  // identical count on every rank
    const std::uint32_t li = local_index(win.hub);
    if (li == kNotHere) continue;  // hub has no arcs here
    const ModuleId cur = module_of_[li];
    if (cur == win.target) continue;
    // Move the hub's mass between the local copies of the two modules; exit
    // probabilities are restored exactly by the swap phase of this round.
    const double flow = verts_[li].node_flow;
    auto& old_m = modules_[cur];
    old_m.sum_pr -= flow;
    old_m.num_members = old_m.num_members > 0 ? old_m.num_members - 1 : 0;
    auto& new_m = modules_[win.target];
    new_m.sum_pr += flow;
    new_m.num_members += 1;
    if (cfg_.async) {
      const std::uint64_t t = tick();
      stamp_assign(li, t);
      stamp_stats(cur, t);
      stamp_stats(win.target, t);
    }
    module_of_[li] = win.target;
    wk(Phase::kBroadcastDelegates).module_updates += 2;
  }
  return hub_moves;
}

std::uint64_t DistRank::broadcast_delegates(
    std::vector<HubProposal>& proposals) {
  PhaseScope scope(*this, Phase::kBroadcastDelegates);
  auto all = comm_.allgatherv(proposals);

  // Winner per hub: minimal ΔL, ties → smaller target module, smaller rank.
  std::map<VertexId, HubProposal> winners;  // ordered ⇒ deterministic apply
  for (const auto& batch : all) {
    for (const HubProposal& hp : batch) {
      auto [it, inserted] = winners.try_emplace(hp.hub, hp);
      if (inserted) continue;
      HubProposal& w = it->second;
      const bool better =
          hp.delta_l < w.delta_l - 1e-15 ||
          (hp.delta_l < w.delta_l + 1e-15 &&
           (hp.target < w.target || (hp.target == w.target && hp.rank < w.rank)));
      if (better) w = hp;
    }
  }
  std::vector<HubProposal> ordered;
  ordered.reserve(winners.size());
  for (const auto& [hub, win] : winners) ordered.push_back(win);
  return apply_hub_winners(ordered);
}

std::uint64_t DistRank::broadcast_delegates_exact() {
  PhaseScope scope(*this, Phase::kBroadcastDelegates);
  const int p = comm_.size();
  const int r = comm_.rank();

  // Ship each local hub's per-module flow partials (with the sender's
  // post-sync module stats attached) to the hub's owner, in hub order.
  std::vector<std::vector<HubFlowRecord>> out(p);
  for (std::uint32_t li : hubs_) {
    const LocalVertex& hv = verts_[li];
    nbflow_.clear();
    for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1]; ++a)
      nbflow_[module_of_[arcs_[a].target]].flow += arcs_[a].flow;
    wk(Phase::kBroadcastDelegates).arcs_scanned +=
        arc_off_[li + 1] - arc_off_[li];
    auto& sink = out[static_cast<std::size_t>(owner_of(hv.global))];
    for (const ModuleId mod : nbflow_.keys()) {
      HubFlowRecord rec;
      rec.hub = hv.global;
      rec.module = mod;
      rec.flow = nbflow_.find(mod)->flow;
      if (const ModuleStats* stats = modules_.find(mod)) {
        rec.sum_pr = stats->sum_pr;
        rec.exit_pr = stats->exit_pr;
        rec.num_members = static_cast<std::int64_t>(stats->num_members);
      } else {
        rec.num_members = -1;  // stats unknown to the sender
      }
      sink.push_back(rec);
    }
  }
  auto incoming = comm_.alltoallv(out);

  // Owners merge flows per (hub, module) and evaluate the exact ΔL per owned
  // hub. A stable sort groups the records but keeps their arrival order
  // inside each group, so every flow sum is the arrival-order fold; hubs and
  // candidates are then visited in id order.
  struct Candidate {
    ModuleId mod = 0;
    double flow = 0;
    ModuleStats stats;
    bool have_stats = false;
  };
  std::vector<HubFlowRecord> recs;
  for (const auto& batch : incoming) recs.insert(recs.end(), batch.begin(), batch.end());
  std::stable_sort(recs.begin(), recs.end(),
                   [](const HubFlowRecord& a, const HubFlowRecord& b) {
                     return a.hub != b.hub ? a.hub < b.hub : a.module < b.module;
                   });

  std::vector<HubProposal> decisions;
  std::vector<Candidate> flows;
  for (std::size_t i = 0; i < recs.size();) {
    const VertexId hub = recs[i].hub;
    flows.clear();
    for (; i < recs.size() && recs[i].hub == hub; ++i) {
      const HubFlowRecord& rec = recs[i];
      if (flows.empty() || flows.back().mod != rec.module) {
        flows.emplace_back();
        flows.back().mod = rec.module;
      }
      Candidate& cand = flows.back();
      cand.flow += rec.flow;
      if (!cand.have_stats && rec.num_members >= 0) {
        cand.stats.sum_pr = rec.sum_pr;
        cand.stats.exit_pr = rec.exit_pr;
        cand.stats.num_members = static_cast<std::uint64_t>(rec.num_members);
        cand.have_stats = true;
      }
    }
    DINFOMAP_REQUIRE_MSG(owner_of(hub) == r, "hub flows sent to wrong owner");
    const std::uint32_t hub_li = local_index(hub);
    DINFOMAP_REQUIRE_MSG(hub_li != kNotHere, "owner does not hold its hub");
    const LocalVertex& hv = verts_[hub_li];
    const ModuleId cur = module_of_[hub_li];
    const auto cur_it =
        std::find_if(flows.begin(), flows.end(),
                     [cur](const Candidate& c) { return c.mod == cur; });
    const double f_to_old = cur_it != flows.end() ? cur_it->flow : 0.0;
    const ModuleStats* own_cur = modules_.find(cur);
    if (own_cur == nullptr) continue;

    double best_delta = -kMoveEpsilon;
    ModuleId best_target = cur;
    for (const Candidate& cand : flows) {
      const ModuleId mod = cand.mod;
      if (mod == cur) continue;
      ModuleStats stats;
      if (const ModuleStats* own = modules_.find(mod))
        stats = *own;
      else if (cand.have_stats)
        stats = cand.stats;
      else
        continue;
      MoveDelta d;
      d.p_u = hv.node_flow;
      d.f_u = hv.out_flow;  // exact global hub flow
      d.f_to_old = f_to_old;
      d.f_to_new = cand.flow;  // exact global flow to the candidate
      d.old_stats = *own_cur;
      d.new_stats = stats;
      d.q_total = q_total_;
      const MoveOutcome outcome = eval_move(d);
      ++wk(Phase::kBroadcastDelegates).delta_evals;
      if (outcome.delta_codelength < best_delta - 1e-15 ||
          (outcome.delta_codelength < best_delta + 1e-15 && mod < best_target)) {
        best_delta = outcome.delta_codelength;
        best_target = mod;
      }
    }
    if (best_target != cur)
      decisions.push_back(
          {.hub = hub, .rank = r, .target = best_target, .delta_l = best_delta});
  }

  // Every rank learns every owner's decisions (unique per hub by
  // construction) and applies them in deterministic hub order.
  auto all = comm_.allgatherv(decisions);
  std::vector<HubProposal> ordered;
  for (const auto& batch : all)
    ordered.insert(ordered.end(), batch.begin(), batch.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const HubProposal& a, const HubProposal& b) { return a.hub < b.hub; });
  return apply_hub_winners(ordered);
}

// ---------------------------------------------------------------------------
// Phase 3: information swapping (Alg. 3)
// ---------------------------------------------------------------------------

HomeTotals DistRank::swap_boundary_info(std::uint64_t local_moves) {
  PhaseScope scope(*this, Phase::kSwapBoundaryInfo);
  const int p = comm_.size();

  // --- boundary-vertex records (Alg. 3 lines 2–20) -----------------------
  // For every owned vertex that changed module and is a ghost elsewhere,
  // ship (vertex, module) to each subscriber. Module statistics do not ride
  // here: the homes' reply below carries each module's once.
  std::vector<std::vector<BoundaryRecord>> out(p);
  for (std::uint32_t li : dirty_owned_) {
    const BoundaryRecord rec{verts_[li].global, module_of_[li]};
    for (std::uint32_t s = sub_off_[li]; s < sub_off_[li + 1]; ++s)
      out[static_cast<std::size_t>(sub_ranks_[s])].push_back(rec);
  }
  // A sync round re-arms every vertex it shipped. The async engine ships an
  // owned vertex's record at most once per level and keeps its flag: the
  // epoch deltas already carry each of its moves to the same subscribers.
  if (!cfg_.async)
    for (std::uint32_t li : dirty_owned_) dirty_flag_[li] = 0;
  dirty_owned_.clear();
  auto incoming = comm_.alltoallv(out);

  // Receive side (Alg. 3 lines 22–32): update the ghost→module mapping.
  for (const auto& batch : incoming) {
    for (const BoundaryRecord& rec : batch) {
      const std::uint32_t li = local_index(rec.vertex);
      if (li == kNotHere) continue;
      if (cfg_.async && module_of_[li] != rec.module) stamp_assign(li, tick());
      module_of_[li] = rec.module;
    }
  }

  // --- exact aggregation at module homes ----------------------------------
  // Every vertex is controlled by exactly one rank and every arc is held by
  // exactly one rank, so per-module partial sums reduce to exact statistics.
  // Accumulated in the reusable dense scratch (module ids < level_n_). The
  // scan reads every local arc once; that is the phase's arcs_scanned.
  // Settled vertices send nothing: their modules' stats are all zero but the
  // member count, which the alive total carries instead.
  partial_acc_.clear();
  const int r = comm_.rank();
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    const LocalVertex& lv = verts_[li];
    const bool controlled =
        (lv.kind == Kind::kOwned && !settled(li)) ||
        (lv.kind == Kind::kDelegate && owner_of(lv.global) == r);
    if (controlled) {
      const ModuleId m = module_of_[li];
      ModulePartial& mp = partial_acc_[m];
      mp.mod_id = m;
      mp.sum_pr += lv.node_flow;
      mp.num_members += 1;
    }
  }
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    const ModuleId mu = module_of_[li];
    for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1]; ++a) {
      const ModuleId mv = module_of_[arcs_[a].target];
      if (mu == mv) continue;
      ModulePartial& mp = partial_acc_[mu];
      mp.mod_id = mu;
      mp.exit_pr += arcs_[a].flow;
    }
  }
  wk(Phase::kSwapBoundaryInfo).arcs_scanned += arcs_.size();
  // Zero partials double as interest declarations for every module any
  // local vertex currently references.
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    if (settled(li)) continue;
    const ModuleId m = module_of_[li];
    partial_acc_[m].mod_id = m;  // no-op unless this touch created the entry
  }

  std::vector<std::vector<ModulePartial>> to_home(p);
  for (const ModuleId m : partial_acc_.keys())
    to_home[home_of(m)].push_back(*partial_acc_.find(m));
  auto partials_in = comm_.alltoallv(to_home);

  // Homes fold the partials in (source rank, sender order): first-touch
  // order of homed_, and the order of every FP sum over it.
  homed_.clear();
  for (int src = 0; src < p; ++src) {
    for (const ModulePartial& mp : partials_in[src]) {
      ModuleStats& stats = homed_[home_slot(mp.mod_id)];
      stats.sum_pr += mp.sum_pr;
      stats.exit_pr += mp.exit_pr;
      stats.num_members += static_cast<std::uint64_t>(mp.num_members);
    }
  }

  // This home's codelength partials, in homed_'s first-touch order.
  HomeTotals mine;
  for (const ModuleId slot : homed_.keys()) {
    const ModuleStats& stats = *homed_.find(slot);
    if (stats.num_members == 0) continue;
    mine.q_total += stats.exit_pr;
    mine.sum_plogp_q += plogp(stats.exit_pr);
    mine.sum_plogp_q_plus_p += plogp(stats.exit_pr + stats.sum_pr);
    ++mine.alive;
  }
  mine.alive += num_settled_;
  mine.moves = local_moves;

  // Authoritative statistics back to every interested rank: each sender
  // declared interest with a partial, so its reply mirrors its partials.
  // Every rank also gets this home's totals on the same exchange.
  std::vector<std::vector<ModuleInfo>> reply(p);
  for (int src = 0; src < p; ++src) {
    reply[src].reserve(partials_in[src].size());
    for (const ModulePartial& mp : partials_in[src]) {
      const ModuleStats& stats = *homed_.find(home_slot(mp.mod_id));
      if (stats.num_members == 0) continue;  // module died this round
      ModuleInfo info;
      info.mod_id = mp.mod_id;
      info.sum_pr = stats.sum_pr;
      info.exit_pr = stats.exit_pr;
      info.num_members = static_cast<std::int32_t>(stats.num_members);
      reply[src].push_back(info);
    }
  }
  const std::vector<std::vector<HomeTotals>> totals_out(p, {mine});
  auto [replies_in, totals_in] = comm_.alltoallv_packed(reply, totals_out);
  if (metrics_ != nullptr) metrics_->counter("comm.packed_exchanges").inc();
  // Added in rank order from rank 0's record, exactly as Comm::allreduce
  // folds, so the sums are bit-identical to an allreduce of the partials.
  HomeTotals total = totals_in[0].at(0);
  for (int src = 1; src < p; ++src) {
    const HomeTotals& t = totals_in[src].at(0);
    total.q_total += t.q_total;
    total.sum_plogp_q += t.sum_plogp_q;
    total.sum_plogp_q_plus_p += t.sum_plogp_q_plus_p;
    total.alive += t.alive;
    total.moves += t.moves;
  }

  // A3 ablation switch. With whole-module swapping on (the paper's design)
  // the local table is replaced by the authoritative statistics. With the
  // naive swap a rank keeps the statistics its own updates left in the
  // table and only adds the modules it does not hold yet, so held entries
  // drift — §3.4's predicted failure. (The home aggregation above runs
  // either way; merging and the reported L need it.)
  if (cfg_.whole_module_swap) {
    if (cfg_.async) std::swap(modules_, prev_modules_);
    modules_.clear();
  }
  // One tick for the whole table refresh; a module only gets the stamp if
  // the authoritative statistics differ bitwise from what the table held
  // before (vanished modules need no stamp: a module vanishes only when its
  // last local member moved away, and that assignment was stamped).
  const std::uint64_t t = cfg_.async ? tick() : 0;
  for (const auto& batch : replies_in) {
    for (const ModuleInfo& info : batch) {
      // One home answers for each module, and a sender's partials name a
      // module once, so every id arrives once. After the whole-module clear
      // the table holds none of them.
      if (modules_.contains(info.mod_id)) continue;
      ModuleStats& stats = modules_[info.mod_id];
      stats.sum_pr = info.sum_pr;
      stats.exit_pr = info.exit_pr;
      stats.num_members = static_cast<std::uint64_t>(info.num_members);
      if (cfg_.async) {
        // Under the naive swap prev_modules_ stays empty: every module
        // added here is new to the table.
        const ModuleStats* prev = prev_modules_.find(info.mod_id);
        const bool changed = prev == nullptr || prev->sum_pr != stats.sum_pr ||
                             prev->exit_pr != stats.exit_pr ||
                             prev->num_members != stats.num_members;
        if (changed) stamp_stats(info.mod_id, t);
      }
      ++wk(Phase::kSwapBoundaryInfo).module_updates;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Phase 4: global codelength + movement consensus
// ---------------------------------------------------------------------------

std::uint64_t DistRank::other_update(const HomeTotals& totals,
                                     std::uint64_t hub_moves) {
  PhaseScope scope(*this, Phase::kOther);
  q_total_ = totals.q_total;
  CodelengthTerms global;
  global.q_total = totals.q_total;
  global.sum_plogp_q = totals.sum_plogp_q;
  global.sum_plogp_q_plus_p = totals.sum_plogp_q_plus_p;
  global.node_term = node_term_;
  codelength_ = global.codelength();
  alive_modules_ = totals.alive;
  return totals.moves + hub_moves;
}

void DistRank::sample_table_metrics() {
  if (metrics_ == nullptr) return;
  metrics_->gauge("module_table.size").set(static_cast<double>(modules_.size()));
  metrics_->gauge("module_table.capacity")
      .set(static_cast<double>(modules_.capacity()));
}

DistRank::RoundResult DistRank::round(bool with_delegates,
                                      util::Xoshiro256& rng) {
  const std::uint64_t arcs0 = wk(Phase::kFindBestModule).arcs_scanned;
  RoundResult rr;
  std::vector<HubProposal> proposals;
  rr.local_moves = find_best_modules(with_delegates, rng, proposals);
  if (with_delegates) {
    rr.hub_moves = cfg_.exact_hub_moves ? broadcast_delegates_exact()
                                        : broadcast_delegates(proposals);
  }
  rr.global_moves =
      other_update(swap_boundary_info(rr.local_moves), rr.hub_moves);
  if (recorder_ != nullptr && recorder_->enabled()) {
    obs::RoundSample sample;
    sample.level = current_level_;
    sample.round = round_index_;
    sample.codelength = codelength_;
    sample.moves = rr.global_moves;
    sample.rank_work = wk(Phase::kFindBestModule).arcs_scanned - arcs0;
    sample.skipped_unsynced = skipped_unsynced_round_;
    recorder_->record_round(comm_.rank(), sample);
    if (trace_buf_ != nullptr) {
      trace_buf_->counter("codelength", codelength_);
      trace_buf_->counter("global_moves",
                          static_cast<double>(rr.global_moves));
    }
    if (metrics_ != nullptr) {
      metrics_->histogram("round.moves").observe(rr.global_moves);
      metrics_->counter("moves.skipped_unsynced").inc(skipped_unsynced_round_);
      sample_table_metrics();
    }
  }
  skipped_unsynced_total_ += skipped_unsynced_round_;
  skipped_unsynced_round_ = 0;
  ++round_index_;
  return rr;
}

// ---------------------------------------------------------------------------
// Async priority-worklist engine (DESIGN.md §12)
// ---------------------------------------------------------------------------

std::uint64_t DistRank::async_reconcile(bool with_delegates,
                                        std::uint64_t local_moves_since) {
  // Hub consensus first (stage 1 only): hubs are deliberately kept off the
  // worklist — their move decisions need globally merged flows, so they only
  // move at reconciliation points, through the synchronous consensus path.
  std::uint64_t hub_moves = 0;
  if (with_delegates) {
    if (cfg_.exact_hub_moves) {
      hub_moves = broadcast_delegates_exact();
    } else {
      std::vector<HubProposal> proposals;
      {
        PhaseScope scope(*this, Phase::kFindBestModule);
        for (std::uint32_t li : hubs_) {
          BestMove mv;
          if (best_move_for(li, mv))
            proposals.push_back({.hub = verts_[li].global,
                                 .rank = comm_.rank(),
                                 .target = mv.target,
                                 .delta_l = mv.delta_l});
        }
      }
      hub_moves = broadcast_delegates(proposals);
    }
  }
  const std::uint64_t global_moves =
      other_update(swap_boundary_info(local_moves_since), hub_moves);

  // Stamp-driven reactivation: the swap stamped every module whose
  // authoritative statistics differ from the local estimates and every ghost
  // whose assignment moved, and other_update replaced q_total_ with the
  // exact global value. Re-seed exactly the vertices whose last evaluation
  // can no longer be proven current.
  for (std::uint32_t li : movable_) {
    if (verts_[li].kind == Kind::kDelegate) continue;
    if (!can_prune(li)) worklist_.activate(li, verts_[li].out_flow);
  }
  return global_moves;
}

LevelStop DistRank::async_level(bool with_delegates, OuterIterationInfo& info) {
  const int p = comm_.size();
  int& recons_out = info.inner_passes;

  // Reverse adjacency, once per level: owned readers of every non-owned
  // local vertex, so an incoming delta reactivates exactly the local move
  // candidates whose neighborhoods it touched.
  ghost_readers_.assign(verts_.size(), {});
  for (std::uint32_t li : movable_) {
    if (verts_[li].kind == Kind::kDelegate) continue;
    for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1]; ++a)
      if (arcs_[a].boundary) ghost_readers_[arcs_[a].target].push_back(li);
  }

  // Seed every movable non-hub; boundary vertices get a flat bonus on top of
  // their out-flow so the first drains work the rank frontier, where cross-
  // rank conflicts are resolved earliest.
  worklist_.reset(verts_.size());
  std::uint64_t n_movable = 0;
  for (std::uint32_t li : movable_) {
    if (verts_[li].kind == Kind::kDelegate) continue;
    ++n_movable;
    bool boundary = false;
    for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1]; ++a) {
      if (arcs_[a].boundary) {
        boundary = true;
        break;
      }
    }
    worklist_.activate(li, verts_[li].out_flow + (boundary ? 1.0 : 0.0));
  }

  // Per-epoch drain budget: enough to retire the whole seed in a handful of
  // epochs, but small enough that priority order (not seed order) dominates
  // which vertices move between exchanges.
  const std::uint64_t budget = std::max<std::uint64_t>(256, n_movable);
  const int max_epochs = kMaxRounds * kAsyncMaxLag;

  std::uint64_t level_moves = 0;
  std::uint64_t local_since_recon = 0;
  double recon_l_prev = codelength_;
  bool last_was_recon = false;

  // Best reconciled state seen, for the end-of-level rollback: asynchronous
  // drains can regress the exact L (stale-statistics decisions), and a level
  // must never *end* in a regressed state — merges are irreversible, so
  // damage here would be locked in for every later level.
  double best_l = codelength_;
  std::vector<VertexId> best_assign = module_of_;

  LevelStop stop = LevelStop::kRoundCap;
  for (int epoch = 0; epoch < max_epochs; ++epoch) {
    obs::SpanScope epoch_span(trace_buf_, "AsyncEpoch");
    last_was_recon = false;
    const std::uint64_t arcs0 = wk(Phase::kFindBestModule).arcs_scanned;

    // --- drain: pop by priority, move, activate local readers -------------
    std::vector<std::vector<ModuleDeltaRecord>> delta_out(p);
    std::uint64_t epoch_local_moves = 0;
    {
      PhaseScope scope(*this, Phase::kFindBestModule);
      std::uint64_t drained = 0;
      std::uint32_t li = 0;
      while (drained < budget && worklist_.try_pop(li)) {
        ++drained;
        BestMove mv;
        if (!best_move_for(li, mv)) continue;
        const ModuleId old_mod = module_of_[li];
        apply_local_move(li, mv);
        ++epoch_local_moves;
        mark_dirty(li);
        const double gain = -mv.delta_l;
        for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1]; ++a)
          if (!arcs_[a].boundary) worklist_.activate(arcs_[a].target, gain);
        ModuleDeltaRecord rec;
        rec.vertex = verts_[li].global;
        rec.old_module = old_mod;
        rec.new_module = mv.target;
        rec.node_flow = verts_[li].node_flow;
        rec.gain = gain;
        for (std::uint32_t sub = sub_off_[li]; sub < sub_off_[li + 1]; ++sub)
          delta_out[static_cast<std::size_t>(sub_ranks_[sub])].push_back(rec);
      }
    }

    // --- epoch exchange: one packed collective, no barrier-per-sweep ------
    // Deltas go to the movers' subscribers; a tiny status record goes to
    // every rank and doubles as the termination consensus (no moves anywhere
    // ⇒ no deltas anywhere ⇒ no new activations ⇒ queues can only shrink).
    std::uint64_t epoch_global_moves = 0;
    std::uint64_t global_queued = 0;
    local_since_recon += epoch_local_moves;
    {
      PhaseScope scope(*this, Phase::kSwapBoundaryInfo);
      EpochStatus st;
      st.moves = epoch_local_moves;
      st.queued = worklist_.live();
      std::vector<std::vector<EpochStatus>> status_out(p);
      for (int d = 0; d < p; ++d) status_out[static_cast<std::size_t>(d)].push_back(st);
      auto [deltas_in, status_in] = comm_.alltoallv_packed(delta_out, status_out);
      if (metrics_ != nullptr) metrics_->counter("comm.packed_exchanges").inc();
      for (const auto& batch : status_in) {
        for (const EpochStatus& s : batch) {
          epoch_global_moves += s.moves;
          global_queued += s.queued;
        }
      }
      // Apply received deltas: exact ghost assignments, *estimated* module
      // masses. Exit probabilities cannot be corrected locally (the flows
      // crossing a remote module's boundary are not visible here), so the
      // table intentionally runs on stale statistics until the next
      // reconciliation rebuilds it from the authoritative homes — that is
      // the staleness the kAsyncMaxLag budget bounds.
      for (int src = 0; src < p; ++src) {
        for (const ModuleDeltaRecord& rec : deltas_in[src]) {
          const std::uint32_t g = local_index(rec.vertex);
          if (g == kNotHere) continue;
          if (module_of_[g] == rec.new_module) continue;
          module_of_[g] = rec.new_module;
          const std::uint64_t t = tick();
          stamp_assign(g, t);
          if (modules_.contains(rec.old_module)) {
            ModuleStats& om = modules_[rec.old_module];
            om.sum_pr -= rec.node_flow;
            if (om.num_members > 0) --om.num_members;
            stamp_stats(rec.old_module, t);
          }
          const bool known = modules_.contains(rec.new_module);
          ModuleStats& nm = modules_[rec.new_module];
          if (known) {
            nm.sum_pr += rec.node_flow;
            ++nm.num_members;
          } else {
            nm.sum_pr = rec.node_flow;
            // True exit flow is unknown here (reconciliation restores it);
            // estimate it as the mover's out-flow rather than zero — a
            // zero-exit module prices as a perfect sink in the map equation
            // and the drains over-merge into it.
            nm.exit_pr = rec.node_flow;
            nm.num_members = 1;
          }
          stamp_stats(rec.new_module, t);
          ++wk(Phase::kSwapBoundaryInfo).module_updates;
          for (std::uint32_t reader : ghost_readers_[g])
            worklist_.activate(reader, rec.gain);
        }
      }
    }

    const bool quiet = epoch_global_moves == 0 && global_queued == 0;
    const bool lag_due = (epoch + 1) % kAsyncMaxLag == 0;

    // --- reconciliation / termination -------------------------------------
    std::uint64_t recon_moves = 0;
    bool reconciled = false;
    if (lag_due || quiet) {
      recon_moves = async_reconcile(with_delegates, local_since_recon);
      level_moves += recon_moves;
      local_since_recon = 0;
      ++recons_out;
      reconciled = true;
      last_was_recon = true;
      note_exact_round();
    }

    // --- flight-recorder epoch sample -------------------------------------
    if (recorder_ != nullptr && recorder_->enabled()) {
      obs::RoundSample sample;
      sample.level = current_level_;
      sample.round = round_index_;
      sample.codelength = codelength_;  // last reconciled L unless reconciled
      sample.exact_mdl = reconciled;
      sample.is_epoch = true;
      sample.moves = reconciled ? recon_moves : epoch_global_moves;
      sample.rank_work = wk(Phase::kFindBestModule).arcs_scanned - arcs0;
      sample.skipped_unsynced = skipped_unsynced_round_;
      const auto& wl = worklist_.counters();
      sample.worklist_pushed = wl.pushed;
      sample.worklist_popped = wl.popped;
      sample.worklist_requeued = wl.requeued;
      sample.worklist_stale = wl.stale;
      recorder_->record_round(comm_.rank(), sample);
      if (trace_buf_ != nullptr) {
        trace_buf_->counter("codelength", codelength_);
        trace_buf_->counter("worklist_live",
                            static_cast<double>(worklist_.live()));
      }
      if (metrics_ != nullptr) {
        metrics_->counter("worklist.pushed").inc(wl.pushed);
        metrics_->counter("worklist.popped").inc(wl.popped);
        metrics_->counter("worklist.requeued").inc(wl.requeued);
        metrics_->counter("worklist.stale").inc(wl.stale);
        metrics_->counter("moves.skipped_unsynced").inc(skipped_unsynced_round_);
      }
    }
    skipped_unsynced_total_ += skipped_unsynced_round_;
    skipped_unsynced_round_ = 0;
    worklist_.reset_counters();
    ++round_index_;

    if (reconciled) {
      if (codelength_ < best_l) {
        best_l = codelength_;
        best_assign = module_of_;
      }
      // Same stopping rules as the synchronous round loop, evaluated on the
      // exact per-reconciliation codelengths. A quiet epoch plus a move-free
      // reconciliation is only terminal if the post-reconciliation
      // reactivation sweeps queued nothing anywhere: reconciliation replaces
      // stale estimates with exact statistics, and vertices it reactivates
      // must get one drain on that exact state before the level may close.
      if (quiet && recon_moves == 0 &&
          comm_.allreduce<std::uint64_t>(worklist_.live(),
                                         comm::ReduceOp::kSum) == 0) {
        stop = LevelStop::kNoMoves;
        break;
      }
      // Break on the first regressing reconciliation, like the synchronous
      // loop breaks on a regressing round — running further mostly deepens
      // level-local merging at the expense of the later levels' granularity.
      // Ending *in* the damaged state is impossible: the rollback below
      // restores the best reconciled state of the level.
      if (codelength_ > recon_l_prev + kRoundTheta) {
        stop = LevelStop::kOvershoot;
        break;
      }
      if (recons_out >= kMinRounds &&
          recon_l_prev - codelength_ < kRoundTheta) {
        stop = LevelStop::kSmallGain;
        break;
      }
      if (recons_out >= kMaxRounds) break;
      recon_l_prev = codelength_;
    }
  }

  // The level must end on exact state (merge_level consumes homed_); if the
  // epoch cap fired between reconciliations, settle once more.
  if (!last_was_recon) {
    level_moves += async_reconcile(with_delegates, local_since_recon);
    ++recons_out;
    note_exact_round();
    ++round_index_;
  }

  // Rollback: if the level is about to close worse than its best reconciled
  // state, restore that state. Every rank restores from its own snapshot
  // (taken at the same reconciliation, so globally consistent), re-ships the
  // restored boundary assignments, and rebuilds exact statistics with one
  // more exchange. best_l is reproduced bitwise: the same assignment yields
  // the same home aggregation and the same reduction.
  if (codelength_ > best_l) {
    const std::uint64_t t = tick();
    for (std::uint32_t li = 0; li < verts_.size(); ++li) {
      if (module_of_[li] == best_assign[li]) continue;
      module_of_[li] = best_assign[li];
      stamp_assign(li, t);
      if (verts_[li].kind == Kind::kOwned) mark_dirty(li);
    }
    (void)other_update(swap_boundary_info(0), 0);
    ++recons_out;
    note_exact_round();
    ++round_index_;
  }
  info.moves += level_moves;
  return stop;
}

// ---------------------------------------------------------------------------
// Distributed merging (§3.5)
// ---------------------------------------------------------------------------

VertexId DistRank::merge_level() {
  obs::SpanScope merge_span(trace_buf_, "MergeLevel");
  const int p = comm_.size();

  // 1. Dense relabeling of live modules: homes announce theirs, owners their
  //    settled ones (a settled module's home is its owner), and a module's
  //    dense id is its rank among all live ids. Module ids are current-level
  //    vertex ids, so a slot array of level_n_ entries ranks them without a
  //    sort.
  std::vector<ModuleId> mine;
  mine.reserve(homed_.size() + num_settled_);
  for (const ModuleId slot : homed_.keys())
    if (homed_.find(slot)->num_members > 0) mine.push_back(homed_id(slot));
  for (std::uint32_t li = 0; li < verts_.size(); ++li)
    if (settled(li)) mine.push_back(module_of_[li]);
  const auto announced = comm_.allgatherv(mine);
  constexpr VertexId kDead = ~VertexId{0};
  std::vector<VertexId> dense_of(level_n_, kDead);
  for (const auto& batch : announced)
    for (const ModuleId m : batch) dense_of[m] = 0;
  VertexId k = 0;
  for (VertexId& d : dense_of)
    if (d != kDead) d = k++;
  // Dense id of every local vertex's module, looked up once per vertex.
  std::vector<VertexId> coarse(verts_.size());
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    coarse[li] = dense_of[module_of_[li]];
    DINFOMAP_REQUIRE_MSG(coarse[li] != kDead,
                         "module " << module_of_[li]
                                   << " missing from the live-id list");
  }

  // 2. Coarse arcs to their new 1D owners (source-owner rule), combined at
  //    the sender: local vertices are grouped by coarse id and each group's
  //    flow per coarse target is summed in (local vertex, arc) order, so
  //    every (cu, cv) pair ships once and each outbox is sorted by
  //    (cu, cv). Intra-module flow becomes self flow, halved because both
  //    directions survive the global arc multiset; carried self flow follows
  //    its vertex's module. Ghosts hold no arcs and no self flow.
  std::vector<std::uint64_t> by_module;  // (cu << 32) | li
  for (std::uint32_t li = 0; li < verts_.size(); ++li)
    if (verts_[li].kind != Kind::kGhost)
      by_module.push_back(std::uint64_t{coarse[li]} << 32 | li);
  std::sort(by_module.begin(), by_module.end());
  std::vector<std::vector<CoarseArc>> coarse_out(p);
  util::SparseAccumulator<VertexId, double> pair_flow(k);
  std::vector<VertexId> targets;
  std::uint64_t shipped = 0;
  for (std::size_t g = 0; g < by_module.size();) {
    const auto cu = static_cast<VertexId>(by_module[g] >> 32);
    pair_flow.clear();
    for (; g < by_module.size() && (by_module[g] >> 32) == cu; ++g) {
      const auto li = static_cast<std::uint32_t>(by_module[g]);
      for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1]; ++a) {
        const VertexId cv = coarse[arcs_[a].target];
        pair_flow[cv] += cu == cv ? arcs_[a].flow / 2.0 : arcs_[a].flow;
      }
      if (verts_[li].self_flow > 0) pair_flow[cu] += verts_[li].self_flow;
    }
    targets.assign(pair_flow.keys().begin(), pair_flow.keys().end());
    std::sort(targets.begin(), targets.end());
    auto& box = coarse_out[cu % static_cast<VertexId>(p)];
    for (const VertexId cv : targets) box.push_back({cu, cv, *pair_flow.find(cv)});
    shipped += targets.size();
  }

  // 3. Coarse node flows from module homes to new owners; a settled
  //    module's coarse vertex gets zero flow and stays settled.
  std::vector<std::vector<CoarseVertexInfo>> info_out(p);
  for (const ModuleId slot : homed_.keys()) {
    const ModuleStats& stats = *homed_.find(slot);
    if (stats.num_members == 0) continue;
    const VertexId cu = dense_of[homed_id(slot)];
    info_out[cu % static_cast<VertexId>(p)].push_back({cu, 0, stats.sum_pr});
  }
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    if (!settled(li)) continue;
    const VertexId cu = coarse[li];
    info_out[cu % static_cast<VertexId>(p)].push_back({cu, 0, 0.0});
  }

  // 4. This level's map, each owned vertex's coarse id: result assembly
  //    composes the level maps into the level-0 assignment.
  append_level_map(coarse);

  // 5. Coarse arcs and node flows to their new owners in one packed exchange.
  obs::SpanScope redist_span(trace_buf_, "Redistribute");
  auto [coarse_in, info_in] = comm_.alltoallv_packed(coarse_out, info_out);
  std::vector<std::vector<CoarseArc>>().swap(coarse_out);
  if (metrics_ != nullptr) metrics_->counter("comm.packed_exchanges").inc();

  // 6. Rebuild from the shipped streams.
  build_local_graph(coarse_in, p, k);
  if (metrics_ != nullptr) {
    metrics_->counter("merge.coarse_arcs_shipped").inc(shipped);
    metrics_->counter("merge.coarse_arcs_built").inc(arcs_.size());
  }

  const int r = comm_.rank();
  for (auto& lv : verts_)
    lv.kind = owner_of(lv.global) == r ? Kind::kOwned : Kind::kGhost;
  mark_boundary_arcs();
  for (const auto& batch : info_in) {
    for (const CoarseVertexInfo& ci : batch) {
      const std::uint32_t li = local_index(ci.vertex);
      DINFOMAP_REQUIRE_MSG(li != kNotHere, "coarse info for unknown vertex");
      verts_[li].node_flow = ci.node_flow;
    }
  }
  movable_.clear();
  hubs_.clear();
  for (std::uint32_t li = 0; li < verts_.size(); ++li)
    if (verts_[li].kind == Kind::kOwned) movable_.push_back(li);

  level_n_ = k;
  level_sizes_.push_back(k);
  setup_subscriptions();
  init_singleton_modules();
  return k;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

LevelStop DistRank::sync_level(bool with_delegates, OuterIterationInfo& info,
                               util::Xoshiro256& rng) {
  for (int i = 0; i < kMaxRounds; ++i) {
    const double before = codelength_;
    const RoundResult rr = round(with_delegates, rng);
    info.moves += rr.global_moves;
    ++info.inner_passes;
    note_exact_round();
    if (rr.global_moves == 0) return LevelStop::kNoMoves;
    // Conflicting synchronous moves can overshoot; stop the level rather
    // than keep trading regressions.
    if (codelength_ > before + kRoundTheta) return LevelStop::kOvershoot;
    if (i + 1 >= kMinRounds && before - codelength_ < kRoundTheta)
      return LevelStop::kSmallGain;
  }
  return LevelStop::kRoundCap;
}

void DistRank::execute() {
  util::Xoshiro256 rng(util::derive_seed(cfg_.seed, comm_.rank()));

  setup_subscriptions();
  init_singleton_modules();
  // Initial sync: exact singleton statistics + L everywhere.
  (void)other_update(swap_boundary_info(0), 0);
  singleton_codelength_ = codelength_;

  // ---- levels: 0 = stage 1 (with delegates), >= 1 = stage 2 (without) -----
  // Every level clusters, records its trace row, merges, and resyncs exact
  // statistics + L on the coarser graph; stage 2 stops once a level merges
  // nothing or the MDL gain drops below theta.
  util::Timer stage_timer;
  std::optional<obs::SpanScope> stage_span(std::in_place, trace_buf_, "Stage1");
  double prev_codelength = 0;
  for (int level = 0;; ++level) {
    const bool stage1 = level == 0;
    current_level_ = level;
    OuterIterationInfo info;
    info.level = level;
    info.level_vertices = level_n_;
    info.codelength_before = codelength_;
    level_stops_.push_back(cfg_.async ? async_level(stage1, info)
                                      : sync_level(stage1, info, rng));
    info.codelength_after = codelength_;
    info.num_modules = static_cast<VertexId>(alive_modules_);
    trace_.push_back(info);

    const double improvement = prev_codelength - codelength_;
    prev_codelength = codelength_;
    if (!stage1) {
      ++stage2_levels_;
      if (alive_modules_ >= info.level_vertices) {
        stage2_ended_by_ = Stage2End::kMergedNothing;
        break;
      }
    }
    merge_level();
    (void)other_update(swap_boundary_info(0), 0);
    if (stage1) {
      stage_span.reset();
      stage1_seconds_ = stage_timer.seconds();
      for (int ph = 0; ph < kNumPhases; ++ph)
        stage1_work_snapshot_[ph] = work_[ph];
      stage_timer.restart();
      stage_span.emplace(trace_buf_, "Stage2");
    } else if (improvement < kTheta) {
      stage2_ended_by_ = Stage2End::kSmallGain;
      break;
    }
    if (level >= kMaxLevels) {
      stage2_ended_by_ = Stage2End::kLevelCap;
      break;
    }
  }
  stage_span.reset();
  stage2_seconds_ = stage_timer.seconds();

  // The last level map: each owned vertex's final module.
  append_level_map(module_of_);
}

perf::WorkCounters DistRank::stage_work(int stage) const {
  perf::WorkCounters stage1;
  for (const auto& w : stage1_work_snapshot_) stage1 += w;
  if (stage == 0) return stage1;
  perf::WorkCounters total;
  for (const auto& w : work_) total += w;
  perf::WorkCounters stage2;
  stage2.arcs_scanned = total.arcs_scanned - stage1.arcs_scanned;
  stage2.delta_evals = total.delta_evals - stage1.delta_evals;
  stage2.module_updates = total.module_updates - stage1.module_updates;
  stage2.messages = total.messages - stage1.messages;
  stage2.bytes = total.bytes - stage1.bytes;
  return stage2;
}

}  // namespace dinfomap::core::detail

// ---------------------------------------------------------------------------
// Public drivers
// ---------------------------------------------------------------------------

namespace dinfomap::core {

namespace {

/// Fold the result arrays, the recorder's metrics dumps, and the watchdog
/// findings into `result.report` (its faults_injected is already set by the
/// rank-0 assembly in run_rank).
void fill_run_report(const graph::GraphView& graph,
                     const DistInfomapConfig& config,
                     const obs::Recorder& recorder, DistInfomapResult& result) {
  obs::RunReport& rep = result.report;
  rep.add_config("num_ranks", config.num_ranks);
  rep.add_config("degree_threshold",
                 static_cast<std::uint64_t>(config.degree_threshold));
  rep.add_config("theta", kTheta);
  rep.add_config("max_levels", kMaxLevels);
  rep.add_config("max_rounds", kMaxRounds);
  rep.add_config("round_theta", kRoundTheta);
  rep.add_config("min_rounds", kMinRounds);
  rep.add_config("move_epsilon", kMoveEpsilon);
  rep.add_config("sub_rounds", kSubRounds);
  rep.add_config("seed", static_cast<std::uint64_t>(config.seed));
  rep.add_config("min_label", config.min_label);
  rep.add_config("whole_module_swap", config.whole_module_swap);
  rep.add_config("exact_hub_moves", config.exact_hub_moves);
  rep.add_config("async", config.async);
  if (config.faults.any()) {
    rep.add_config("fault_drop", config.faults.drop);
    rep.add_config("fault_duplicate", config.faults.duplicate);
    rep.add_config("fault_reorder", config.faults.reorder);
    rep.add_config("fault_corrupt", config.faults.corrupt);
    rep.add_config("fault_stall_rank", config.faults.stall_rank);
    rep.add_config("fault_seed", static_cast<std::uint64_t>(config.faults.seed));
  }
  if (config.comm_watchdog_ms > 0)
    rep.add_config("comm_watchdog_ms",
                   static_cast<std::uint64_t>(config.comm_watchdog_ms));
  rep.graph_vertices = graph.num_vertices();
  rep.graph_edges = graph.num_edges();
  rep.num_ranks = config.num_ranks;
  rep.codelength = result.codelength;
  rep.singleton_codelength = result.singleton_codelength;
  rep.num_modules = result.num_modules();
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const OuterIterationInfo& row = result.trace[i];
    obs::RunReport::LevelRow lr;
    lr.level = static_cast<int>(row.level);
    lr.vertices = row.level_vertices;
    lr.rounds = static_cast<int>(row.inner_passes);
    lr.moves = row.moves;
    lr.codelength_before = row.codelength_before;
    lr.codelength_after = row.codelength_after;
    lr.num_modules = row.num_modules;
    lr.stop = kLevelStopNames[static_cast<std::size_t>(result.level_stops.at(i))];
    rep.levels.push_back(lr);
  }
  rep.round_codelengths = result.stage1_round_codelengths;
  rep.stage1_rounds = result.stage1_rounds;
  rep.stage2_levels = result.stage2_levels;
  rep.stage2_ended_by =
      kStage2EndNames[static_cast<std::size_t>(result.stage2_ended_by)];
  rep.stage1_wall_seconds = result.stage1_wall_seconds;
  rep.stage2_wall_seconds = result.stage2_wall_seconds;
  for (int ph = 0; ph < kNumPhases; ++ph) {
    obs::RunReport::PhaseRow pr;
    pr.name = kPhaseNames[static_cast<std::size_t>(ph)];
    pr.work = result.work[static_cast<std::size_t>(ph)];
    pr.seconds = result.phase_seconds[static_cast<std::size_t>(ph)];
    rep.phases.push_back(std::move(pr));
  }
  rep.stage_work = result.stage_work;
  rep.comm = result.comm_counters;
  if (recorder.enabled()) {
    for (const auto& m : recorder.all_metrics())
      rep.metrics_json.push_back(m.to_json());
    rep.anomalies = recorder.anomalies();
    if (const obs::ProfileDigest* d = recorder.profile()) {
      rep.profile = *d;
      rep.has_profile = true;
    }
  }
}

/// Input contract shared by both entries: ranks are the distributed core's
/// only parallel axis (the stub threads_per_rank field accepts nothing but
/// 1), and the builder has separated self-loops out of the graph.
void require_supported_input(const graph::GraphView& graph,
                             const DistInfomapConfig& config) {
  DINFOMAP_REQUIRE_MSG(config.threads_per_rank == 1,
                       "threads_per_rank must be 1 (got "
                           << config.threads_per_rank
                           << "): ranks are the distributed core's only "
                              "parallel axis; add ranks instead");
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v)
    DINFOMAP_REQUIRE_MSG(graph.self_weight(v) == 0,
                         "distributed path expects a self-loop-free input "
                         "(the builder separates them)");
}

/// Dense-relabel module ids below `num_ids` into contiguous [0, k): each id
/// becomes its rank among the used ones.
graph::Partition densify_assignment(graph::Partition raw,
                                    graph::VertexId num_ids) {
  constexpr graph::VertexId kUnused = ~graph::VertexId{0};
  std::vector<graph::VertexId> slot(num_ids, kUnused);
  for (const graph::VertexId m : raw) slot[m] = 0;
  graph::VertexId k = 0;
  for (graph::VertexId& id : slot)
    if (id != kUnused) id = k++;
  for (graph::VertexId& m : raw) m = slot[m];
  return raw;
}

/// The level-0 assignment from every rank's level maps (DistRank::level_maps,
/// one batch per rank) and the level sizes n_0..n_L. Level l's map of vertex
/// v sits in rank (v mod p)'s segment for l at position v / p. Walking back
/// from the last level, whose map holds final modules (level-L ids, so the
/// walk starts from the identity on them), each level's final module is its
/// coarse vertex's: f_l[v] = f_{l+1}[c_l[v]].
graph::Partition compose_assignment(
    const std::vector<graph::VertexId>& level_sizes,
    const std::vector<std::vector<graph::VertexId>>& maps) {
  const auto p = static_cast<graph::VertexId>(maps.size());
  std::vector<std::size_t> end(maps.size());
  for (std::size_t r = 0; r < maps.size(); ++r) end[r] = maps[r].size();
  graph::Partition above(level_sizes.back());  // f_{l+1}
  std::iota(above.begin(), above.end(), graph::VertexId{0});
  graph::Partition here;  // f_l
  for (std::size_t l = level_sizes.size(); l-- > 0;) {
    const graph::VertexId n = level_sizes[l];
    here.assign(n, 0);
    for (graph::VertexId r = 0; r < p; ++r) {
      const graph::VertexId count = n > r ? (n - r + p - 1) / p : 0;
      DINFOMAP_REQUIRE_MSG(end[r] >= count,
                           "rank " << r << " sent a short level map");
      end[r] -= count;
      const graph::VertexId* seg = maps[r].data() + end[r];
      for (graph::VertexId i = 0; i < count; ++i) {
        DINFOMAP_REQUIRE(seg[i] < above.size());
        here[r + i * p] = above[seg[i]];
      }
    }
    above.swap(here);
  }
  for (graph::VertexId r = 0; r < p; ++r)
    DINFOMAP_REQUIRE_MSG(end[r] == 0, "rank " << r << " sent a long level map");
  return densify_assignment(std::move(above), level_sizes.back());
}

/// Blocks-backend epilogue: publish the decode-cache counters as
/// `blockgraph.*` metrics on rank 0's registry and feed them to the
/// cache_thrash watchdog rule. A no-op on the resident backend. Purely
/// observational (the stats read synchronizes on the lease mutex, after
/// every rank's cursors are released).
void publish_blockgraph_stats(const graph::GraphView& graph,
                              const DistInfomapConfig& config,
                              obs::Recorder& recorder) {
  if (!graph.out_of_core() || !recorder.enabled()) return;
  const graph::blockgraph::BlockGraphStats bs = graph.blocks()->stats();
  auto* m = recorder.metrics(0);
  m->counter("blockgraph.hits").set(bs.hits);
  m->counter("blockgraph.misses").set(bs.misses);
  m->counter("blockgraph.evictions").set(bs.evictions);
  m->counter("blockgraph.decode_ns").set(bs.decode_ns);
  m->counter("blockgraph.resident_blocks").set(bs.resident_blocks);
  m->counter("blockgraph.bytes_mapped").set(bs.bytes_mapped);
  if (config.obs.watchdog) {
    for (obs::Anomaly& a : obs::analyze_block_cache(
             {bs.hits, bs.misses, bs.evictions}, config.obs.watchdog_options))
      recorder.report_anomaly(0, std::move(a));
  }
}

/// Everything rank 0 needs from one rank besides its level maps;
/// trivially copyable, so it crosses the transport in one gather.
struct RankSummary {
  std::array<perf::WorkCounters, kNumPhases> work;
  std::array<perf::WorkCounters, 2> stage_work;
  std::array<double, kNumPhases> phase_seconds;
  comm::CommCounters comm;
  comm::Transport::Stats stats;
};

/// One rank's whole job, the same on both transports: execute Alg. 2, then
/// gather every rank's products to rank 0 over the comm and assemble the
/// result there. Rank 0 returns the assembled result (its report is filled
/// by the caller's epilogue); other ranks return a skeleton with only their
/// locally visible fields.
DistInfomapResult run_rank(const graph::GraphView& graph,
                           const partition::ArcPartition& part,
                           const DistInfomapConfig& config, comm::Comm& comm,
                           obs::Recorder& recorder) {
  const int self = comm.rank();
  comm.set_metrics(recorder.metrics(self));
  comm.set_trace(recorder.track(self));
  detail::DistRank rank(comm, graph, part, config, &recorder);
  rank.execute();

  // Algorithm traffic ends here: snapshot its counters and detach the flight
  // recorder from the comm, so the result gathers below stay out of the
  // comm.* counters. Rank 0 traces them as ResultGather and counts the bytes
  // it receives as result.gather_bytes.
  RankSummary mine{};
  for (int ph = 0; ph < kNumPhases; ++ph) {
    mine.work[ph] = rank.work(static_cast<Phase>(ph));
    mine.phase_seconds[ph] = rank.phase_seconds(static_cast<Phase>(ph));
  }
  for (int stage = 0; stage < 2; ++stage)
    mine.stage_work[stage] = rank.stage_work(stage);
  mine.comm = comm.counters();
  mine.stats = comm.transport().stats();
  comm.set_metrics(nullptr);
  comm.set_trace(nullptr);
  if (obs::MetricsRegistry* m = recorder.metrics(self)) {
    m->absorb(mine.comm, "comm");
    if (config.faults.any()) m->absorb(mine.stats.injected, "comm.faults");
    m->counter("mailbox.depth_high_water").set(mine.stats.inbox_depth_high_water);
    m->counter("mailbox.delivered").set(mine.stats.inbox_delivered);
  }

  std::vector<std::vector<VertexId>> map_batches;
  std::vector<std::vector<RankSummary>> summaries;
  {
    obs::SpanScope span(self == 0 ? recorder.track(0) : nullptr,
                        "ResultGather");
    map_batches = comm.gatherv(0, rank.level_maps());
    summaries = comm.gatherv(0, std::vector<RankSummary>{mine});
  }

  DistInfomapResult result;
  // Locally visible fields are valid on every rank (the codelengths and
  // round series are global values every rank holds identically).
  result.codelength = rank.codelength();
  result.singleton_codelength = rank.singleton_codelength();
  result.trace = rank.trace();
  result.stage1_round_codelengths = rank.stage1_round_codelengths();
  result.stage1_rounds = rank.stage1_rounds();
  result.level_stops = rank.level_stops();
  result.stage2_levels = rank.stage2_levels();
  result.stage2_ended_by = rank.stage2_ended_by();
  result.stage1_wall_seconds = rank.stage1_seconds();
  result.stage2_wall_seconds = rank.stage2_seconds();
  if (self != 0) return result;

  if (obs::MetricsRegistry* m = recorder.metrics(0)) {
    std::uint64_t bytes = 0;
    for (const auto& batch : map_batches) bytes += batch.size() * sizeof(VertexId);
    for (const auto& batch : summaries) bytes += batch.size() * sizeof(RankSummary);
    m->counter("result.gather_bytes").set(bytes);
  }
  {
    obs::SpanScope span(recorder.track(0), "FinalProjection");
    result.assignment = compose_assignment(rank.level_sizes(), map_batches);
  }

  for (const auto& batch : summaries) {
    const RankSummary& s = batch.at(0);
    for (std::size_t ph = 0; ph < kNumPhases; ++ph) {
      result.work[ph].push_back(s.work[ph]);
      result.phase_seconds[ph].push_back(s.phase_seconds[ph]);
    }
    for (std::size_t stage = 0; stage < 2; ++stage)
      result.stage_work[stage].push_back(s.stage_work[stage]);
    result.comm_counters.push_back(s.comm);
    if (config.faults.any())
      result.report.faults_injected.push_back(s.stats.injected);
  }
  return result;
}

}  // namespace

DistInfomapResult distributed_infomap(const graph::GraphView& graph,
                                      const partition::ArcPartition& part,
                                      const DistInfomapConfig& config) {
  require_supported_input(graph, config);
  DINFOMAP_REQUIRE_MSG(config.num_ranks == part.num_ranks,
                       "config/partition rank mismatch");
  DINFOMAP_REQUIRE_MSG(part.round_robin_ownership(),
                       "distributed infomap addresses vertices as v mod p; "
                       "use a round-robin-owned partition (1D or delegate)");
  DINFOMAP_REQUIRE_MSG(partition::validate_partition(part, graph),
                       "arc partition does not fit the graph (wrong sizes, "
                       "a rank out of range, or a low-degree vertex's arc "
                       "off its owner)");

  obs::Recorder recorder(config.num_ranks, config.obs);
  comm::Runtime::Options rt_options;
  rt_options.faults = config.faults;
  rt_options.watchdog_timeout_ms = config.comm_watchdog_ms;
  DistInfomapResult result;
  (void)comm::Runtime::run(
      config.num_ranks,
      [&](comm::Comm& comm) {
        DistInfomapResult mine = run_rank(graph, part, config, comm, recorder);
        if (comm.rank() == 0) result = std::move(mine);
      },
      rt_options);

  // ---- flight-recorder epilogue over every rank's shared recorder --------
  if (recorder.enabled()) {
    // Profile first: the digest's wall-clock window must close before the
    // watchdog mirrors its findings into the trace as post-run instants.
    recorder.finish_profile();
    publish_blockgraph_stats(graph, config, recorder);
    recorder.finish_watchdog();
  }
  fill_run_report(graph, config, recorder, result);
  if (recorder.enabled()) {
    if (!config.obs.trace_path.empty())
      (void)recorder.trace().write(config.obs.trace_path);
    if (!config.obs.report_path.empty())
      (void)result.report.write(config.obs.report_path);
    if (!config.obs.profile_path.empty() && recorder.profile() != nullptr)
      (void)recorder.profile()->write(config.obs.profile_path);
  }
  return result;
}

graph::EdgeIndex resolve_degree_threshold(const graph::GraphView& graph,
                                          const DistInfomapConfig& config) {
  if (config.degree_threshold != 0) return config.degree_threshold;
  // The paper sets d_high = p, which on Titan-scale runs (p ≥ 256, mean
  // degree 20–30) selects only the true hubs and — key to Fig. 8's shape —
  // shrinks the delegate set as p grows. On scaled-down graphs with small p
  // that literal rule would delegate nearly every vertex, so the resolved
  // default keeps the proportionality to p but re-anchors it at a multiple
  // of the mean degree: d_high = mean_degree · max(p, 4) / 2, floored at p.
  const double mean_degree =
      2.0 * static_cast<double>(graph.num_edges()) /
      std::max<double>(1.0, static_cast<double>(graph.num_vertices()));
  const double anchored =
      mean_degree * static_cast<double>(std::max(config.num_ranks, 4)) / 2.0;
  return std::max<graph::EdgeIndex>(
      static_cast<graph::EdgeIndex>(config.num_ranks),
      static_cast<graph::EdgeIndex>(anchored));
}

DistInfomapResult distributed_infomap(const graph::GraphView& graph,
                                      const DistInfomapConfig& config) {
  const auto part = partition::make_delegate(
      graph, config.num_ranks, resolve_degree_threshold(graph, config));
  return distributed_infomap(graph, part, config);
}

DistInfomapResult distributed_infomap_rank(const graph::GraphView& graph,
                                           const DistInfomapConfig& config,
                                           comm::Transport& transport) {
  require_supported_input(graph, config);
  DINFOMAP_REQUIRE_MSG(config.num_ranks == transport.size(),
                       "worker bootstrap: config.num_ranks ("
                           << config.num_ranks << ") != transport size ("
                           << transport.size() << ")");
  // Rebuilt deterministically on every rank from the same (graph, config) —
  // identical to the partition the single-process overload builds: one
  // rank number per arc, from which setup reads this rank's arcs.
  const auto part = partition::make_delegate(
      graph, config.num_ranks, resolve_degree_threshold(graph, config));

  obs::Recorder recorder(config.num_ranks, config.obs);
  comm::Comm comm(transport);
  DistInfomapResult result = run_rank(graph, part, config, comm, recorder);

  // ---- per-process flight-recorder epilogue ------------------------------
  if (transport.rank() == 0) {
    // The cross-rank profile digest needs one trace holding every rank's
    // track (in-process mode); here the watchdog checks the one round
    // stream this process recorded — the global MDL series, identical on
    // all ranks.
    if (recorder.enabled() && config.obs.watchdog) {
      for (obs::Anomaly& a :
           obs::analyze_rounds({recorder.round_streams()[0]},
                               config.obs.watchdog_options))
        recorder.report_anomaly(0, std::move(a));
    }
    // Blocks mode: each worker process has its own mapping and cache; the
    // counters reported here are rank 0's own (representative — every rank
    // streams a similarly sized slice).
    publish_blockgraph_stats(graph, config, recorder);
    fill_run_report(graph, config, recorder, result);
    if (recorder.enabled() && !config.obs.report_path.empty())
      (void)result.report.write(config.obs.report_path);
  }
  // Every worker writes its own per-process trace; the launcher merges them
  // (obs/trace_merge.hpp).
  if (recorder.enabled() && !config.obs.trace_path.empty())
    (void)recorder.trace().write(config.obs.trace_path);
  return result;
}

}  // namespace dinfomap::core
