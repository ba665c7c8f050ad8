#include "core/mapequation.hpp"

namespace dinfomap::core {

namespace {

/// Shared ΔL algebra; `pl` is either the plain plogp or a PlogpMemo. Both
/// instantiations perform the same floating-point operations in the same
/// order, so their results are bit-identical.
template <typename Plogp>
MoveOutcome evaluate_move_impl(const MoveDelta& d, Plogp&& pl) {
  MoveOutcome out;

  out.old_after.sum_pr = d.old_stats.sum_pr - d.p_u;
  out.old_after.exit_pr = d.old_stats.exit_pr - d.f_u + 2.0 * d.f_to_old;
  out.old_after.num_members = d.old_stats.num_members - 1;

  out.new_after.sum_pr = d.new_stats.sum_pr + d.p_u;
  out.new_after.exit_pr = d.new_stats.exit_pr + d.f_u - 2.0 * d.f_to_new;
  out.new_after.num_members = d.new_stats.num_members + 1;

  // Clamp tiny negative drift from floating-point cancellation.
  if (out.old_after.exit_pr < 0 && out.old_after.exit_pr > -1e-12)
    out.old_after.exit_pr = 0;
  if (out.new_after.exit_pr < 0 && out.new_after.exit_pr > -1e-12)
    out.new_after.exit_pr = 0;

  out.delta_q_total = (out.old_after.exit_pr - d.old_stats.exit_pr) +
                      (out.new_after.exit_pr - d.new_stats.exit_pr);

  const double q_before = d.q_total;
  const double q_after = d.q_total + out.delta_q_total;

  double delta = pl(q_after) - pl(q_before);
  delta -= 2.0 * (pl(out.old_after.exit_pr) - pl(d.old_stats.exit_pr) +
                  pl(out.new_after.exit_pr) - pl(d.new_stats.exit_pr));
  delta += pl(out.old_after.exit_pr + out.old_after.sum_pr) -
           pl(d.old_stats.exit_pr + d.old_stats.sum_pr);
  delta += pl(out.new_after.exit_pr + out.new_after.sum_pr) -
           pl(d.new_stats.exit_pr + d.new_stats.sum_pr);

  out.delta_codelength = delta;
  return out;
}

}  // namespace

MoveOutcome evaluate_move(const MoveDelta& d) {
  return evaluate_move_impl(d, [](double x) { return plogp(x); });
}

MoveOutcome evaluate_move(const MoveDelta& d, PlogpMemo& memo) {
  return evaluate_move_impl(d, memo);
}

graph::VertexId select_move(MoveScratch& scratch, graph::VertexId cur,
                            double p_u, double f_u,
                            const std::vector<ModuleStats>& modules,
                            double q_total, MoveOutcome& best) {
  const auto& flow_to = scratch.flow_to;
  const double f_to_old = flow_to.value_or(cur, 0.0);
  double best_delta = -kMoveEpsilon;
  graph::VertexId best_target = cur;
  for (const graph::VertexId mod : flow_to.keys()) {
    if (mod == cur) continue;
    MoveDelta d;
    d.p_u = p_u;
    d.f_u = f_u;
    d.f_to_old = f_to_old;
    d.f_to_new = *flow_to.find(mod);
    d.old_stats = modules[cur];
    d.new_stats = modules[mod];
    d.q_total = q_total;
    const MoveOutcome out = evaluate_move(d, scratch.memo);
    if (better_move(out.delta_codelength, mod, best_delta, best_target)) {
      best_delta = out.delta_codelength;
      best_target = mod;
      best = out;
    }
  }
  return best_target;
}

void LevelState::apply(graph::VertexId u, graph::VertexId target,
                       const MoveOutcome& out) {
  ModuleStats& old_m = modules[module_of[u]];
  ModuleStats& new_m = modules[target];
  terms.q_total += out.delta_q_total;
  terms.sum_plogp_q += plogp(out.old_after.exit_pr) - plogp(old_m.exit_pr) +
                       plogp(out.new_after.exit_pr) - plogp(new_m.exit_pr);
  terms.sum_plogp_q_plus_p +=
      plogp(out.old_after.exit_pr + out.old_after.sum_pr) -
      plogp(old_m.exit_pr + old_m.sum_pr) +
      plogp(out.new_after.exit_pr + out.new_after.sum_pr) -
      plogp(new_m.exit_pr + new_m.sum_pr);
  if (out.old_after.num_members == 0) --live_modules;
  old_m = out.old_after;
  new_m = out.new_after;
  module_of[u] = target;
}

}  // namespace dinfomap::core
