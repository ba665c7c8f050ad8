// Build CSR graphs from edge lists.
#pragma once

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace dinfomap::graph {

struct BuildOptions {
  /// Sum weights of parallel (duplicate) edges into one (default), adding
  /// them in input order — otherwise keep only the first occurrence in input
  /// order.
  bool combine_duplicates = true;
  /// Drop self-loops entirely instead of storing them in self_weight.
  bool drop_self_loops = false;
};

/// Build an undirected CSR from an arbitrary edge list. `num_vertices` of 0
/// means "infer as max endpoint + 1". Weights must be finite and > 0.
/// Duplicate {u,v} pairs (in either orientation) are combined in input order
/// (see BuildOptions), as are self-loop weights; adjacency lists come out
/// sorted by target. Runs in O(|E| + n) passes over
/// util::slots_for(|E|, kMinSlotEdges) threads, and the result is
/// bit-identical for any thread count: each non-self edge is scattered into
/// the bucket of its smaller endpoint (slot by slot, so a bucket keeps input
/// order), each bucket is sorted by (larger endpoint, input rank) and its
/// equal pairs combined, and row x then receives its neighbours u < x bucket
/// by bucket, followed by its own bucket's neighbours v > x.
Csr build_csr(const EdgeList& edges, VertexId num_vertices = 0,
              const BuildOptions& options = {});

/// Sort `edges` by (u, v) with every endpoint < n, keeping equal pairs in
/// input order: two stable counting passes, keyed by v and then by u, over
/// one count array of n + 1 entries.
void sort_by_endpoints(EdgeList& edges, VertexId n);

namespace detail {
/// build_csr on `chunks` slots instead of a count derived from |E|;
/// `chunks` <= 0 derives it. The result is the same for every count. A test
/// seam.
Csr build_csr(const EdgeList& edges, VertexId num_vertices,
              const BuildOptions& options, int chunks);
}  // namespace detail

}  // namespace dinfomap::graph
