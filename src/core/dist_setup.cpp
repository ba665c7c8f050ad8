// Preprocessing of the distributed Infomap (§3.3): local graph construction
// from the arc partition, flow initialization, ghost subscriptions, and
// singleton module setup.
#include <algorithm>
#include <numeric>

#include "core/dist_internal.hpp"
#include "util/check.hpp"

namespace dinfomap::core::detail {

DistRank::DistRank(comm::Comm& comm, const partition::ArcPartition& part,
                   const DistInfomapConfig& cfg, obs::Recorder* recorder)
    : comm_(comm), cfg_(cfg), recorder_(recorder) {
  // Bootstrap guard: a multi-process worker handed a config whose rank
  // count disagrees with the live transport would address vertices
  // (v mod p) inconsistently with its peers — fail loudly before any
  // traffic, not with a hung collective.
  DINFOMAP_REQUIRE_MSG(cfg_.num_ranks == comm_.size(),
                       "DistRank bootstrap: cfg.num_ranks ("
                           << cfg_.num_ranks << ") != comm size ("
                           << comm_.size() << ")");
  if (recorder_ != nullptr) {
    trace_buf_ = recorder_->track(comm_.rank());
    metrics_ = recorder_->metrics(comm_.rank());
  }
  obs::SpanScope span(trace_buf_, "Setup");
  setup_stage1(part);
}

void DistRank::setup_stage1(const partition::ArcPartition& part) {
  const int p = comm_.size();
  const int r = comm_.rank();
  n0_ = static_cast<VertexId>(part.is_delegate.size());

  // Total arc weight (= 2W) from everyone's held arcs.
  double local_w = 0;
  for (const auto& arc : part.rank_arcs[r]) local_w += arc.weight;
  const double two_w = comm_.allreduce(local_w, comm::ReduceOp::kSum);
  DINFOMAP_REQUIRE_MSG(two_w > 0, "distributed infomap: graph has no edges");

  // One run in source-scan order: only the rebalanced tail is unsorted.
  std::vector<std::vector<CoarseArc>> runs(1);
  runs[0].reserve(part.rank_arcs[r].size());
  for (const auto& arc : part.rank_arcs[r])
    runs[0].push_back({arc.source, arc.target, arc.weight / two_w});
  build_local_graph(runs, p, n0_);

  // Kinds.
  for (auto& lv : verts_) {
    if (part.delegate(lv.global))
      lv.kind = Kind::kDelegate;
    else if (owner_of(lv.global) == r)
      lv.kind = Kind::kOwned;
    else
      lv.kind = Kind::kGhost;
  }

  // Hub flows are spread over ranks; reduce them to exact global values.
  std::vector<VertexId> hub_ids;
  for (VertexId v = 0; v < n0_; ++v)
    if (part.delegate(v)) hub_ids.push_back(v);
  std::vector<double> hub_flow(hub_ids.size(), 0.0);
  for (std::size_t i = 0; i < hub_ids.size(); ++i) {
    auto it = index_.find(hub_ids[i]);
    if (it != index_.end()) hub_flow[i] = verts_[it->second].out_flow;
  }
  hub_flow = comm_.allreduce(hub_flow, comm::ReduceOp::kSum);

  // Node flows: owned-low vertices hold their full adjacency, so the local
  // out-flow is already exact; hubs take the reduced value.
  movable_.clear();
  hubs_.clear();
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    auto& lv = verts_[li];
    if (lv.kind == Kind::kOwned) {
      lv.node_flow = lv.out_flow;
      movable_.push_back(li);
    } else if (lv.kind == Kind::kGhost) {
      lv.node_flow = 0;  // never needed locally
    }
  }
  for (std::size_t i = 0; i < hub_ids.size(); ++i) {
    auto it = index_.find(hub_ids[i]);
    if (it == index_.end()) continue;
    auto& lv = verts_[it->second];
    lv.out_flow = hub_flow[i];
    lv.node_flow = hub_flow[i];
    movable_.push_back(it->second);
    hubs_.push_back(it->second);
  }

  // Level-0 node term: each vertex counted once, at its owner.
  double term = 0;
  for (const auto& lv : verts_)
    if (owner_of(lv.global) == r && lv.kind != Kind::kGhost)
      term += plogp(lv.node_flow);
  node_term_ = comm_.allreduce(term, comm::ReduceOp::kSum);

  // Level-0 projection starts as the identity on owned vertices.
  owned0_.clear();
  for (VertexId v = static_cast<VertexId>(r); v < n0_;
       v += static_cast<VertexId>(p))
    owned0_.push_back(v);
  proj_ = owned0_;
  level_n_ = n0_;
}

void DistRank::build_local_graph(std::vector<std::vector<CoarseArc>>& runs,
                                 int num_ranks_mod, VertexId level_n) {
  const auto r = static_cast<VertexId>(comm_.rank());
  const auto by_pair = [](const CoarseArc& a, const CoarseArc& b) {
    return a.source != b.source ? a.source < b.source : a.target < b.target;
  };

  // One (source, target)-sorted sequence: sort each run's unsorted suffix
  // and merge it into the sorted prefix, then merge adjacent runs pairwise.
  // Every merge is stable, so a pair's duplicates keep run order, then
  // within-run order — the order they are summed in below.
  std::size_t total = 0;
  for (auto& run : runs) {
    const auto mid = std::is_sorted_until(run.begin(), run.end(), by_pair);
    std::stable_sort(mid, run.end(), by_pair);
    std::inplace_merge(run.begin(), mid, run.end(), by_pair);
    total += run.size();
  }
  std::vector<CoarseArc> triples;
  std::vector<std::size_t> bounds{0};
  if (runs.size() == 1) {
    triples.swap(runs.front());
    bounds.push_back(triples.size());
  } else {
    triples.reserve(total);
    for (auto& run : runs) {
      triples.insert(triples.end(), run.begin(), run.end());
      std::vector<CoarseArc>().swap(run);
      bounds.push_back(triples.size());
    }
  }
  while (bounds.size() > 2) {
    std::vector<std::size_t> merged{0};
    for (std::size_t i = 2; i < bounds.size(); i += 2) {
      std::inplace_merge(triples.begin() + static_cast<std::ptrdiff_t>(bounds[i - 2]),
                         triples.begin() + static_cast<std::ptrdiff_t>(bounds[i - 1]),
                         triples.begin() + static_cast<std::ptrdiff_t>(bounds[i]),
                         by_pair);
      merged.push_back(bounds[i]);
    }
    if (bounds.size() % 2 == 0) merged.push_back(bounds.back());
    bounds.swap(merged);
  }

  // Combine duplicate (source, target) pairs. After a merge each sender has
  // combined its own, so duplicates there come from different senders.
  std::size_t out = 0;
  for (std::size_t i = 0; i < triples.size(); ++i) {
    if (out > 0 && triples[out - 1].source == triples[i].source &&
        triples[out - 1].target == triples[i].target) {
      triples[out - 1].flow += triples[i].flow;
    } else {
      triples[out++] = triples[i];
    }
  }
  triples.resize(out);

  // Vertex universe: arc endpoints plus every vertex owned here (so isolated
  // owned vertices stay addressable and countable). Local indices ascend
  // with global ids; slot[v] holds v's local index once assigned.
  constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  std::vector<std::uint32_t> slot(level_n, kAbsent);
  for (const auto& t : triples) {
    slot[t.source] = 0;
    slot[t.target] = 0;
  }
  for (VertexId v = r; v < level_n; v += static_cast<VertexId>(num_ranks_mod))
    slot[v] = 0;
  std::uint32_t num_local = 0;
  for (VertexId v = 0; v < level_n; ++v)
    if (slot[v] != kAbsent) slot[v] = num_local++;

  verts_.clear();
  verts_.resize(num_local);
  index_.clear();
  index_.reserve(num_local);
  for (VertexId v = 0; v < level_n; ++v) {
    if (slot[v] == kAbsent) continue;
    verts_[slot[v]].global = v;
    verts_[slot[v]].module = v;
    index_.emplace(v, slot[v]);
  }

  // Group non-self arcs by source; accumulate self flows. Triples are sorted
  // by source, so each source's arcs are contiguous and sources ascend.
  arc_off_.assign(verts_.size() + 1, 0);
  arcs_.clear();
  arcs_.reserve(triples.size());
  std::uint32_t si = 0;
  for (const auto& t : triples) {
    const std::uint32_t src = slot[t.source];
    while (si < src) arc_off_[++si] = static_cast<std::uint32_t>(arcs_.size());
    if (t.source == t.target) {
      verts_[si].self_flow += t.flow;
      continue;
    }
    arcs_.push_back({slot[t.target], t.flow});
  }
  while (si < verts_.size()) arc_off_[++si] = static_cast<std::uint32_t>(arcs_.size());
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    double f = 0;
    for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1]; ++a)
      f += arcs_[a].flow;
    verts_[li].out_flow = f;
  }
}

void DistRank::setup_subscriptions() {
  const int p = comm_.size();
  // Tell each ghost's owner that we read it.
  std::vector<std::vector<SubscribeRequest>> requests(p);
  for (const auto& lv : verts_)
    if (lv.kind == Kind::kGhost)
      requests[owner_of(lv.global)].push_back({lv.global});
  auto incoming = comm_.alltoallv(requests);

  // Flat per-vertex rank lists, ranks ascending (sources are walked in
  // order and each rank subscribes to a vertex at most once).
  std::vector<std::uint32_t> requested;
  for (int src = 0; src < p; ++src) {
    for (const SubscribeRequest& req : incoming[src]) {
      auto it = index_.find(req.vertex);
      DINFOMAP_REQUIRE_MSG(it != index_.end(),
                           "subscription for a vertex the owner does not hold");
      requested.push_back(it->second);
    }
  }
  sub_off_.assign(verts_.size() + 1, 0);
  for (const std::uint32_t li : requested) ++sub_off_[li + 1];
  for (std::size_t i = 1; i < sub_off_.size(); ++i) sub_off_[i] += sub_off_[i - 1];
  sub_ranks_.assign(requested.size(), 0);
  std::vector<std::uint32_t> cursor(sub_off_.begin(), sub_off_.end() - 1);
  std::size_t k = 0;
  for (int src = 0; src < p; ++src)
    for (std::size_t j = 0; j < incoming[src].size(); ++j)
      sub_ranks_[cursor[requested[k++]]++] = src;
}

void DistRank::init_singleton_modules() {
  modules_.clear();
  dirty_owned_.clear();
  round_index_ = 0;
  if (cfg_.async) {
    // Force a full activity reset at the next round/epoch: vertex and module
    // id spaces change across levels, so stamps must not carry over (the
    // stamp helpers bounds-check, making the window between here and the
    // next ensure_activity_state safe).
    assign_stamp_.clear();
    stat_stamp_.clear();
    last_eval_.clear();
    prev_modules_.clear();
    worklist_.reset(0);
    dirty_flag_.clear();
    ghost_readers_.clear();
  }
  num_settled_ = 0;
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    LocalVertex& lv = verts_[li];
    lv.module = lv.global;
    if (lv.kind == Kind::kGhost) continue;
    if (settled(li)) {
      ++num_settled_;
      continue;
    }
    ModuleStats stats;
    stats.sum_pr = lv.node_flow;
    stats.exit_pr = lv.out_flow;
    stats.num_members = 1;
    modules_.emplace(static_cast<ModuleId>(lv.global), stats);
  }
}

}  // namespace dinfomap::core::detail
