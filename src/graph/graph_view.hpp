// GraphView: one non-owning handle over either graph backend — the resident
// Csr or the out-of-core BlockGraph — with the Csr's accessor vocabulary.
//
// Deliberately NOT a virtual interface: the backend is a single pointer
// test, accessors are inline, and neighbor spans come straight from the
// backend, so the resident path compiles down to exactly the direct-Csr
// code it replaces. Consumers that scan adjacency carry a GraphView::Cursor
// (a leased BlockCursor in blocks mode, empty in resident mode); one cursor
// per thread, created outside the scan loop.
//
// Both backends expose bit-identical values for every accessor — the block
// file stores the Csr's weighted degrees, self weights, and totals verbatim
// and decodes adjacency bit-exactly in stored order — which is what makes
// partitions and MDL independent of the backend choice (DESIGN.md §15).
#pragma once

#include <span>

#include "graph/blockgraph/blockgraph.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace dinfomap::graph {

class GraphView {
 public:
  /*implicit*/ GraphView(const Csr& csr) : csr_(&csr) {}  // NOLINT(google-explicit-constructor)
  /*implicit*/ GraphView(const blockgraph::BlockGraph& bg)  // NOLINT(google-explicit-constructor)
      : blocks_(&bg) {}

  /// True when adjacency streams through the decode cache.
  [[nodiscard]] bool out_of_core() const { return blocks_ != nullptr; }
  [[nodiscard]] const Csr* resident() const { return csr_; }
  [[nodiscard]] const blockgraph::BlockGraph* blocks() const { return blocks_; }

  [[nodiscard]] VertexId num_vertices() const {
    return csr_ != nullptr ? csr_->num_vertices() : blocks_->num_vertices();
  }
  [[nodiscard]] EdgeIndex num_arcs() const {
    return csr_ != nullptr ? csr_->num_arcs() : blocks_->num_arcs();
  }
  [[nodiscard]] EdgeIndex num_edges() const {
    return csr_ != nullptr ? csr_->num_edges() : blocks_->num_edges();
  }
  [[nodiscard]] EdgeIndex degree(VertexId u) const {
    return csr_ != nullptr ? csr_->degree(u) : blocks_->degree(u);
  }
  /// Index of u's first arc in the graph's arc order; u's row covers
  /// [first_arc(u), first_arc(u) + degree(u)).
  [[nodiscard]] EdgeIndex first_arc(VertexId u) const {
    return csr_ != nullptr ? csr_->offsets()[u] : blocks_->first_arc(u);
  }
  [[nodiscard]] Weight weighted_degree(VertexId u) const {
    return csr_ != nullptr ? csr_->weighted_degree(u)
                           : blocks_->weighted_degree(u);
  }
  [[nodiscard]] Weight self_weight(VertexId u) const {
    return csr_ != nullptr ? csr_->self_weight(u) : blocks_->self_weight(u);
  }
  [[nodiscard]] Weight total_weight() const {
    return csr_ != nullptr ? csr_->total_weight() : blocks_->total_weight();
  }
  [[nodiscard]] Weight total_link_weight() const {
    return csr_ != nullptr ? csr_->total_link_weight()
                           : blocks_->total_link_weight();
  }

  /// Per-thread iteration state; empty (and free) for the resident backend.
  class Cursor {
   public:
    Cursor() = default;

   private:
    friend class GraphView;
    blockgraph::BlockCursor cur_;
  };

  [[nodiscard]] Cursor cursor() const {
    Cursor c;
    if (blocks_ != nullptr) c.cur_ = blocks_->cursor();
    return c;
  }

  /// Neighbors of `u` in stored order. Resident spans stay valid for the
  /// graph's lifetime; blocks spans until the cursor's next call.
  [[nodiscard]] std::span<const Neighbor> neighbors(VertexId u,
                                                    Cursor& c) const {
    return csr_ != nullptr ? csr_->neighbors(u)
                           : blocks_->neighbors(u, c.cur_);
  }

 private:
  const Csr* csr_ = nullptr;
  const blockgraph::BlockGraph* blocks_ = nullptr;
};

}  // namespace dinfomap::graph
