#include "graph/builder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

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

/// A non-self edge in its bucket (the bucket of its smaller endpoint): the
/// larger endpoint `v`, the weight, and `rank`, its position among the
/// bucket's edges in input order. Trivial, so the bucket array is allocated
/// without being written first.
struct Canon {
  VertexId rank;
  VertexId v;
  Weight w;
};

/// (v, rank) as one integer: comparing it is the stable order by v.
std::uint64_t sort_key(const Canon& c) {
  return std::uint64_t{c.v} << 32 | c.rank;
}

/// Per-(row, slot) counts, slot-major: row x of slot s is count[s * rows + x].
/// On entry each holds how many items slot s puts in row x, and `first` has
/// rows + 1 entries. On return first[x] is where row x starts in a layout
/// where each row holds its slots' items in slot order followed by tail(x)
/// more, and count[s * rows + x] is where slot s's items in row x start.
template <class Tail>
void slot_cursors(util::ThreadPool& pool, std::vector<EdgeIndex>& count,
                  std::size_t rows, std::vector<EdgeIndex>& first, Tail tail) {
  const auto t = static_cast<std::size_t>(pool.num_threads());
  std::vector<EdgeIndex> part(t + 1, 0);  // items in each slot's rows
  pool.parallel_for(rows, [&](int s, std::size_t begin, std::size_t end) {
    EdgeIndex sum = 0;
    for (std::size_t x = begin; x < end; ++x) {
      EdgeIndex row = tail(x);
      for (std::size_t k = 0; k < t; ++k) row += count[k * rows + x];
      first[x + 1] = row;
      sum += row;
    }
    part[static_cast<std::size_t>(s) + 1] = sum;
  });
  for (std::size_t k = 1; k <= t; ++k) part[k] += part[k - 1];
  first[0] = 0;
  pool.parallel_for(rows, [&](int s, std::size_t begin, std::size_t end) {
    EdgeIndex at = part[static_cast<std::size_t>(s)];
    for (std::size_t x = begin; x < end; ++x) {
      EdgeIndex cursor = at;
      for (std::size_t k = 0; k < t; ++k) {
        const EdgeIndex items = count[k * rows + x];
        count[k * rows + x] = cursor;
        cursor += items;
      }
      at += first[x + 1];
      first[x + 1] = at;
    }
  });
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
  return detail::build_csr(edges, num_vertices, options, 0);
}

namespace detail {

namespace {
/// build_csr's work once n is known: validate `edges`, sum the self-loops
/// into `self_weight`, and return the adjacency whose row starts it writes
/// to `offsets` (n + 1 entries). Its temporaries are freed when it returns,
/// before the Csr allocates its weighted degrees.
std::vector<Neighbor> link_rows(util::ThreadPool& pool, const EdgeList& edges,
                                VertexId n, const BuildOptions& options,
                                std::vector<Weight>& self_weight,
                                std::vector<EdgeIndex>& offsets) {
  const auto t = static_cast<std::size_t>(pool.num_threads());
  const std::size_t m = edges.size();
  const std::size_t rows = n;

  // Validate, and count each slot's non-self edges per bucket (the smaller
  // endpoint) and its self-loops. A slot stops at its first invalid edge;
  // the lowest slot's names the first in input order.
  std::vector<EdgeIndex> count(t * rows, 0);
  std::vector<std::size_t> first_bad(t, m);
  std::vector<std::size_t> loops(t, 0);
  pool.parallel_for(m, [&](int s, std::size_t begin, std::size_t end) {
    const auto k = static_cast<std::size_t>(s);
    EdgeIndex* const bucket_count = count.data() + k * rows;
    for (std::size_t i = begin; i < end; ++i) {
      const Edge& e = edges[i];
      if (!(e.u < n && e.v < n && std::isfinite(e.w) && e.w > 0)) {
        first_bad[k] = i;
        return;
      }
      if (e.u == e.v) {
        ++loops[k];
        continue;
      }
      ++bucket_count[std::min(e.u, e.v)];
    }
  });
  for (const std::size_t i : first_bad) {
    if (i == m) continue;
    const Edge& e = edges[i];
    DINFOMAP_REQUIRE_MSG(e.u < n && e.v < n, "edge endpoint out of range");
    DINFOMAP_REQUIRE_MSG(std::isfinite(e.w) && e.w > 0,
                         "edge weights must be finite and positive");
  }

  // Self-loop weights sum in input order, on one thread.
  if (!options.drop_self_loops &&
      std::any_of(loops.begin(), loops.end(), [](std::size_t l) { return l > 0; })) {
    for (const Edge& e : edges)
      if (e.u == e.v) self_weight[e.u] += e.w;
  }

  // Scatter the non-self edges into their buckets: each slot writes its
  // edges of a bucket after those of lower slots, so every bucket holds its
  // edges in input order.
  std::vector<EdgeIndex> bucket(rows + 1);
  slot_cursors(pool, count, rows, bucket, [](std::size_t) { return EdgeIndex{0}; });
  const auto canon = std::make_unique_for_overwrite<Canon[]>(bucket.back());
  pool.parallel_for(m, [&](int s, std::size_t begin, std::size_t end) {
    EdgeIndex* const cursor = count.data() + static_cast<std::size_t>(s) * rows;
    for (std::size_t i = begin; i < end; ++i) {
      const Edge& e = edges[i];
      if (e.u == e.v) continue;
      const auto [lo, hi] = std::minmax(e.u, e.v);
      canon[cursor[lo]++] = {0, hi, e.w};
    }
  });
  // Sort each bucket by (v, rank) — the stable order by v — and combine
  // equal pairs in input order. Then count, per slot, the arcs each row
  // receives from the buckets below it (row v gets u for every pair (u, v)).
  const std::vector<std::size_t> cuts = util::balanced_cuts(bucket, t);
  std::vector<VertexId> unique(rows, 0);
  std::vector<char> oversized(t, 0);
  pool.run_slots([&](int s) {
    const auto k = static_cast<std::size_t>(s);
    EdgeIndex* const lower = count.data() + k * rows;
    std::fill(lower, lower + rows, EdgeIndex{0});
    for (std::size_t u = cuts[k]; u < cuts[k + 1]; ++u) {
      Canon* const begin = canon.get() + bucket[u];
      Canon* const end = canon.get() + bucket[u + 1];
      if (end - begin > static_cast<std::ptrdiff_t>(kInvalidVertex)) {
        oversized[k] = 1;
        return;
      }
      for (Canon* p = begin; p != end; ++p)
        p->rank = static_cast<VertexId>(p - begin);
      std::sort(begin, end, [](const Canon& a, const Canon& b) {
        return sort_key(a) < sort_key(b);
      });
      Canon* out = begin;
      for (const Canon* p = begin; p != end; ++p) {
        if (out != begin && out[-1].v == p->v) {
          if (options.combine_duplicates) out[-1].w += p->w;
        } else {
          *out++ = *p;
        }
      }
      unique[u] = static_cast<VertexId>(out - begin);
      for (const Canon* p = begin; p != out; ++p) ++lower[p->v];
    }
  });
  DINFOMAP_REQUIRE_MSG(
      std::none_of(oversized.begin(), oversized.end(), [](char o) { return o; }),
      "a vertex has 2^32 or more incident edges");

  // Row x: the u < x of its pairs (u, x), filled by slots in bucket order,
  // then its own bucket's v > x — both ascending, so rows come out sorted.
  slot_cursors(pool, count, rows, offsets,
               [&](std::size_t x) { return EdgeIndex{unique[x]}; });
  std::vector<Neighbor> adjacency(offsets.back());
  pool.run_slots([&](int s) {
    const auto k = static_cast<std::size_t>(s);
    EdgeIndex* const cursor = count.data() + k * rows;
    for (std::size_t u = cuts[k]; u < cuts[k + 1]; ++u) {
      const Canon* const pairs = canon.get() + bucket[u];
      Neighbor* const upper = adjacency.data() + offsets[u + 1] - unique[u];
      for (VertexId i = 0; i < unique[u]; ++i) {
        upper[i] = {pairs[i].v, pairs[i].w};
        adjacency[cursor[pairs[i].v]++] = {static_cast<VertexId>(u), pairs[i].w};
      }
    }
  });
  return adjacency;
}
}  // namespace

Csr build_csr(const EdgeList& edges, VertexId num_vertices,
              const BuildOptions& options, int chunks) {
  const int slots =
      chunks > 0 ? chunks : util::slots_for(edges.size(), kMinSlotEdges);
  util::ThreadPool pool(slots);
  VertexId n = num_vertices;
  if (n == 0) {
    std::vector<VertexId> top(static_cast<std::size_t>(slots), 0);
    pool.parallel_for(edges.size(), [&](int s, std::size_t begin, std::size_t end) {
      VertexId hi = 0;
      for (std::size_t i = begin; i < end; ++i)
        hi = std::max({hi, edges[i].u + 1, edges[i].v + 1});
      top[static_cast<std::size_t>(s)] = hi;
    });
    n = *std::max_element(top.begin(), top.end());
  }
  std::vector<Weight> self_weight(n, 0.0);
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<Neighbor> adjacency =
      link_rows(pool, edges, n, options, self_weight, offsets);
  return Csr(std::move(offsets), std::move(adjacency), std::move(self_weight),
             pool);
}

}  // namespace detail

}  // namespace dinfomap::graph
