#include "graph/builder.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace dinfomap::graph {

namespace {
/// One stable counting pass: scatter `from` into `to` ordered by key(e),
/// where `count` has one more entry than there are keys.
template <class Key>
void counting_pass(const EdgeList& from, EdgeList& to,
                   std::vector<EdgeIndex>& count, Key key) {
  std::fill(count.begin(), count.end(), EdgeIndex{0});
  for (const Edge& e : from) ++count[key(e) + 1];
  for (std::size_t k = 1; k < count.size(); ++k) count[k] += count[k - 1];
  for (const Edge& e : from) to[count[key(e)]++] = e;
}
}  // namespace

void sort_by_endpoints(EdgeList& edges, VertexId n) {
  std::vector<EdgeIndex> count(static_cast<std::size_t>(n) + 1);
  EdgeList by_v(edges.size());
  counting_pass(edges, by_v, count, [](const Edge& e) { return e.v; });
  counting_pass(by_v, edges, count, [](const Edge& e) { return e.u; });
}

Csr build_csr(const EdgeList& edges, VertexId num_vertices,
              const BuildOptions& options) {
  VertexId n = num_vertices;
  if (n == 0) {
    for (const Edge& e : edges) n = std::max({n, e.u + 1, e.v + 1});
  }
  for (const Edge& e : edges) {
    DINFOMAP_REQUIRE_MSG(e.u < n && e.v < n, "edge endpoint out of range");
    DINFOMAP_REQUIRE_MSG(std::isfinite(e.w) && e.w > 0,
                         "edge weights must be finite and positive");
  }

  // Canonicalize to u <= v and sort, so duplicates (either orientation) are
  // adjacent, in input order.
  std::vector<Edge> canon;
  canon.reserve(edges.size());
  std::vector<Weight> self_weight(n, 0.0);
  for (const Edge& e : edges) {
    if (e.u == e.v) {
      if (!options.drop_self_loops) self_weight[e.u] += e.w;
      continue;
    }
    canon.push_back(e.u <= e.v ? e : Edge{e.v, e.u, e.w});
  }
  sort_by_endpoints(canon, n);
  // Combine duplicates in place.
  std::size_t out = 0;
  for (std::size_t i = 0; i < canon.size(); ++i) {
    if (out > 0 && canon[out - 1].u == canon[i].u && canon[out - 1].v == canon[i].v) {
      if (options.combine_duplicates) canon[out - 1].w += canon[i].w;
    } else {
      canon[out++] = canon[i];
    }
  }
  canon.resize(out);

  // Counting pass for symmetric adjacency.
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : canon) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  // Filling in canonical (u, v) order leaves every row sorted by target.
  std::vector<Neighbor> adjacency(offsets.back());
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : canon) {
    adjacency[cursor[e.u]++] = Neighbor{e.v, e.w};
    adjacency[cursor[e.v]++] = Neighbor{e.u, e.w};
  }
  return Csr(std::move(offsets), std::move(adjacency), std::move(self_weight));
}

}  // namespace dinfomap::graph
