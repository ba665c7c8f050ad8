// Preprocessing of the distributed Infomap (§3.3): local graph construction
// from the arc partition, flow initialization, ghost subscriptions, and
// singleton module setup.
#include <algorithm>

#include "core/dist_internal.hpp"
#include "util/check.hpp"

namespace dinfomap::core::detail {

DistRank::DistRank(comm::Comm& comm, const graph::GraphView& graph,
                   const partition::ArcPartition& part,
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
  setup_stage1(graph, part);
}

void DistRank::setup_stage1(const graph::GraphView& graph,
                            const partition::ArcPartition& part) {
  const int p = comm_.size();
  const int r = comm_.rank();
  n0_ = graph.num_vertices();

  // Level-0 arcs straight from the graph: walk the rows of every vertex
  // local here (owned, or a hub) and keep the arcs the partition gave this
  // rank; a row with none of them is not read. Rows are target-sorted
  // without duplicate pairs, so arcs_ comes out in (source, target) order
  // with no sort and no merge. Flows start as raw weights and are scaled
  // once 2W is known.
  arcs_.clear();
  arcs_.reserve(static_cast<std::size_t>(
      std::count(part.arc_rank.begin(), part.arc_rank.end(), r)));
  std::vector<SourceRow> rows;
  double local_w = 0;
  auto cursor = graph.cursor();
  for (VertexId u = 0; u < n0_; ++u) {
    if (!part.local_on(u, r)) continue;
    const auto first = part.arc_rank.begin() +
                       static_cast<std::ptrdiff_t>(graph.first_arc(u));
    const auto last = first + static_cast<std::ptrdiff_t>(graph.degree(u));
    if (std::find(first, last, r) == last) continue;
    auto rank_of = first;
    for (const auto& nb : graph.neighbors(u, cursor)) {
      if (*rank_of++ != r) continue;
      arcs_.push_back({nb.target, 0, nb.weight});
      local_w += nb.weight;
    }
    rows.push_back({u, static_cast<std::uint32_t>(arcs_.size()), 0.0});
  }

  // Total arc weight (= 2W) from everyone's held arcs.
  const double two_w = comm_.allreduce(local_w, comm::ReduceOp::kSum);
  DINFOMAP_REQUIRE_MSG(two_w > 0, "distributed infomap: graph has no edges");
  for (auto& a : arcs_) a.flow /= two_w;
  install_local_graph(rows, p, n0_);

  // Kinds.
  for (auto& lv : verts_) {
    if (part.delegate(lv.global))
      lv.kind = Kind::kDelegate;
    else if (owner_of(lv.global) == r)
      lv.kind = Kind::kOwned;
    else
      lv.kind = Kind::kGhost;
  }
  mark_boundary_arcs();

  // Hub flows are spread over ranks; reduce them to exact global values.
  std::vector<VertexId> hub_ids;
  for (VertexId v = 0; v < n0_; ++v)
    if (part.delegate(v)) hub_ids.push_back(v);
  std::vector<double> hub_flow(hub_ids.size(), 0.0);
  for (std::size_t i = 0; i < hub_ids.size(); ++i) {
    const std::uint32_t li = local_index(hub_ids[i]);
    if (li != kNotHere) hub_flow[i] = verts_[li].out_flow;
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
    const std::uint32_t li = local_index(hub_ids[i]);
    if (li == kNotHere) continue;
    auto& lv = verts_[li];
    lv.out_flow = hub_flow[i];
    lv.node_flow = hub_flow[i];
    movable_.push_back(li);
    hubs_.push_back(li);
  }

  // Level-0 node term: each vertex counted once, at its owner.
  double term = 0;
  for (const auto& lv : verts_)
    if (owner_of(lv.global) == r && lv.kind != Kind::kGhost)
      term += plogp(lv.node_flow);
  node_term_ = comm_.allreduce(term, comm::ReduceOp::kSum);
  level_n_ = n0_;
  level_sizes_.assign(1, n0_);
}

void DistRank::build_local_graph(std::vector<std::vector<CoarseArc>>& runs,
                                 int num_ranks_mod, VertexId level_n) {
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

  // Split the triples into arcs_ (global targets) and one row per source,
  // combining duplicate (source, target) pairs. After a merge each sender
  // has combined its own, so duplicates there come from different senders.
  arcs_.clear();
  arcs_.reserve(triples.size());
  std::vector<SourceRow> rows;
  for (std::size_t i = 0; i < triples.size(); ++i) {
    const CoarseArc& t = triples[i];
    if (rows.empty() || rows.back().source != t.source)
      rows.push_back({t.source, static_cast<std::uint32_t>(arcs_.size()), 0.0});
    if (t.source == t.target) {
      rows.back().self_flow += t.flow;
    } else if (i > 0 && triples[i - 1].source == t.source &&
               triples[i - 1].target == t.target) {
      arcs_.back().flow += t.flow;
    } else {
      arcs_.push_back({t.target, 0, t.flow});
      rows.back().end = static_cast<std::uint32_t>(arcs_.size());
    }
  }
  std::vector<CoarseArc>().swap(triples);
  install_local_graph(rows, num_ranks_mod, level_n);
}

void DistRank::install_local_graph(const std::vector<SourceRow>& rows,
                                   int num_ranks_mod, VertexId level_n) {
  const auto r = static_cast<VertexId>(comm_.rank());
  // Vertex universe: arc endpoints plus every vertex owned here (so isolated
  // owned vertices stay addressable and countable). Local indices ascend
  // with global ids; slot[v] holds v's local index once assigned.
  std::vector<std::uint32_t>& slot = local_of_;
  slot.assign(level_n, kNotHere);
  for (const SourceRow& row : rows) slot[row.source] = 0;
  for (const LocalArc& a : arcs_) slot[a.target] = 0;
  for (VertexId v = r; v < level_n; v += static_cast<VertexId>(num_ranks_mod))
    slot[v] = 0;
  std::uint32_t num_local = 0;
  for (VertexId v = 0; v < level_n; ++v)
    if (slot[v] != kNotHere) slot[v] = num_local++;

  verts_.clear();
  verts_.resize(num_local);
  for (VertexId v = 0; v < level_n; ++v)
    if (slot[v] != kNotHere) verts_[slot[v]].global = v;

  // Rows ascend by source, so each local vertex's arcs are contiguous and
  // local sources ascend too.
  arc_off_.assign(verts_.size() + 1, 0);
  std::uint32_t si = 0;
  std::uint32_t start = 0;
  for (const SourceRow& row : rows) {
    const std::uint32_t src = slot[row.source];
    while (si < src) arc_off_[++si] = start;
    verts_[src].self_flow = row.self_flow;
    start = row.end;
  }
  while (si < verts_.size()) arc_off_[++si] = start;
  for (LocalArc& a : arcs_) a.target = slot[a.target];
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
      const std::uint32_t li = local_index(req.vertex);
      DINFOMAP_REQUIRE_MSG(li != kNotHere,
                           "subscription for a vertex the owner does not hold");
      requested.push_back(li);
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

void DistRank::mark_boundary_arcs() {
  for (LocalArc& a : arcs_)
    a.boundary = verts_[a.target].kind != Kind::kOwned ? 1 : 0;
  // Split is keyed on ghosts, not on the boundary bit: arcs to hubs are
  // boundary arcs at p = 1 too, where no move can conflict across ranks.
  const bool peers = comm_.size() > 1;
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    LocalVertex& lv = verts_[li];
    bool split = false;
    if (lv.kind == Kind::kDelegate) {
      split = peers;
    } else if (lv.kind == Kind::kOwned) {
      for (std::uint32_t a = arc_off_[li]; a < arc_off_[li + 1] && !split; ++a)
        split = verts_[arcs_[a].target].kind == Kind::kGhost;
    }
    lv.split = split ? 1 : 0;
  }
}

void DistRank::init_singleton_modules() {
  const auto p = static_cast<VertexId>(comm_.size());
  const std::size_t n = verts_.size();
  modules_.reset(level_n_);
  nbflow_.reset(level_n_);
  partial_acc_.reset(level_n_);
  homed_.reset((level_n_ + p - 1) / p);
  dirty_owned_.clear();
  dirty_flag_.assign(n, 0);
  round_index_ = 0;
  if (cfg_.async) {
    // Vertex and module id spaces change across levels, so no stamp carries
    // over: every vertex starts unevaluated at this level.
    clock_ = 1;
    assign_stamp_.assign(n, 1);
    last_eval_.assign(n, 0);
    last_margin_.assign(n, 0.0);
    last_q_.assign(n, 0.0);
    stat_stamp_.assign(level_n_, 1);
    prev_modules_.reset(level_n_);
    worklist_.reset(0);
    ghost_readers_.clear();
  }
  num_settled_ = 0;
  module_of_.resize(verts_.size());
  for (std::uint32_t li = 0; li < verts_.size(); ++li) {
    const LocalVertex& lv = verts_[li];
    module_of_[li] = lv.global;
    if (lv.kind == Kind::kGhost) continue;
    if (settled(li)) {
      ++num_settled_;
      continue;
    }
    ModuleStats& stats = modules_[lv.global];
    stats.sum_pr = lv.node_flow;
    stats.exit_pr = lv.out_flow;
    stats.num_members = 1;
  }
}

void DistRank::append_level_map(const std::vector<VertexId>& per_local) {
  const int r = comm_.rank();
  for (std::uint32_t li = 0; li < verts_.size(); ++li)
    if (owner_of(verts_[li].global) == r) level_maps_.push_back(per_local[li]);
}

}  // namespace dinfomap::core::detail
