#include "graph/csr.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dinfomap::graph {

Csr::Csr(std::vector<EdgeIndex> offsets, std::vector<Neighbor> adjacency,
         std::vector<Weight> self_weight)
    : offsets_(std::move(offsets)),
      adjacency_(std::move(adjacency)),
      self_weight_(std::move(self_weight)) {
  util::ThreadPool pool(util::slots_for(num_edges(), detail::kMinSlotEdges));
  sum_weights(pool);
}

Csr::Csr(std::vector<EdgeIndex> offsets, std::vector<Neighbor> adjacency,
         std::vector<Weight> self_weight, util::ThreadPool& pool)
    : offsets_(std::move(offsets)),
      adjacency_(std::move(adjacency)),
      self_weight_(std::move(self_weight)) {
  sum_weights(pool);
}

void Csr::sum_weights(util::ThreadPool& pool) {
  DINFOMAP_REQUIRE_MSG(!offsets_.empty(), "CSR offsets must have n+1 entries");
  DINFOMAP_REQUIRE(offsets_.front() == 0);
  DINFOMAP_REQUIRE(offsets_.back() == adjacency_.size());
  DINFOMAP_REQUIRE(self_weight_.size() + 1 == offsets_.size());

  const VertexId n = num_vertices();
  wdeg_.assign(n, 0.0);
  const auto t = static_cast<std::size_t>(pool.num_threads());
  const std::vector<std::size_t> cuts = util::balanced_cuts(offsets_, t);
  pool.run_slots([&](int s) {
    const auto k = static_cast<std::size_t>(s);
    for (std::size_t u = cuts[k]; u < cuts[k + 1]; ++u) {
      for (const Neighbor& nb : neighbors(static_cast<VertexId>(u)))
        wdeg_[u] += nb.weight;
    }
  });
  total_link_weight_ = 0;
  for (VertexId u = 0; u < n; ++u) total_link_weight_ += wdeg_[u];
  total_link_weight_ /= 2;
  total_weight_ = total_link_weight_;
  for (Weight sw : self_weight_) total_weight_ += sw;
}

bool Csr::validate() const {
  const VertexId n = num_vertices();
  for (VertexId u = 0; u < n; ++u) {
    if (offsets_[u] > offsets_[u + 1]) return false;
    if (self_weight_[u] < 0) return false;
  }
  // Symmetry check via canonical multiset of arcs.
  std::vector<std::pair<std::pair<VertexId, VertexId>, Weight>> fwd, rev;
  fwd.reserve(adjacency_.size());
  rev.reserve(adjacency_.size());
  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& nb : neighbors(u)) {
      if (nb.target >= n) return false;
      if (nb.target == u) return false;  // self-loops live in self_weight_
      if (!(nb.weight > 0)) return false;
      fwd.push_back({{u, nb.target}, nb.weight});
      rev.push_back({{nb.target, u}, nb.weight});
    }
  }
  std::sort(fwd.begin(), fwd.end());
  std::sort(rev.begin(), rev.end());
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    if (fwd[i].first != rev[i].first) return false;
    if (std::abs(fwd[i].second - rev[i].second) > 1e-12) return false;
  }
  return true;
}

}  // namespace dinfomap::graph
