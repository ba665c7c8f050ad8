// Chunk-count invariance helpers for the threaded ingest: build a CSR at
// every slot count the tests cover and require the builds to agree byte for
// byte.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <exception>
#include <string>

#include "graph/builder.hpp"
#include "graph/csr.hpp"

namespace dinfomap::testing {

/// Slot counts the ingest tests run: one thread through more slots than the
/// host has cores.
inline constexpr int kMaxChunks = 8;

/// True when `a` and `b` hold the same offsets, adjacency (targets and
/// weight bits), self-loop and weighted-degree bits, and totals.
inline bool same_csr_bytes(const graph::Csr& a, const graph::Csr& b) {
  if (a.offsets() != b.offsets()) return false;
  if (a.adjacency().size() != b.adjacency().size()) return false;
  for (std::size_t i = 0; i < a.adjacency().size(); ++i) {
    if (a.adjacency()[i].target != b.adjacency()[i].target) return false;
    if (std::bit_cast<std::uint64_t>(a.adjacency()[i].weight) !=
        std::bit_cast<std::uint64_t>(b.adjacency()[i].weight))
      return false;
  }
  const auto bits = [](double w) { return std::bit_cast<std::uint64_t>(w); };
  for (graph::VertexId v = 0; v < a.num_vertices(); ++v) {
    if (bits(a.self_weight(v)) != bits(b.self_weight(v))) return false;
    if (bits(a.weighted_degree(v)) != bits(b.weighted_degree(v))) return false;
  }
  return bits(a.total_weight()) == bits(b.total_weight()) &&
         bits(a.total_link_weight()) == bits(b.total_link_weight());
}

/// build_csr on 1..kMaxChunks slots, each with `options` and with
/// combine_duplicates flipped, every build required to equal the one-slot
/// build of the same options. Returns the one-slot build with `options`. If
/// that throws, every other slot count must throw the same message, and the
/// exception propagates.
inline graph::Csr build_every_chunk_count(const graph::EdgeList& edges,
                                          graph::VertexId n = 0,
                                          const graph::BuildOptions& options = {}) {
  const auto check = [&](const graph::BuildOptions& opt) {
    std::exception_ptr error;
    std::string what;
    graph::Csr one;
    try {
      one = graph::detail::build_csr(edges, n, opt, 1);
    } catch (const std::exception& e) {
      error = std::current_exception();
      what = e.what();
    }
    for (int chunks = 2; chunks <= kMaxChunks; ++chunks) {
      SCOPED_TRACE(::testing::Message()
                   << chunks << " chunks, combine " << opt.combine_duplicates);
      try {
        const graph::Csr g = graph::detail::build_csr(edges, n, opt, chunks);
        EXPECT_FALSE(error) << "one chunk threw: " << what;
        EXPECT_TRUE(error || same_csr_bytes(g, one));
      } catch (const std::exception& e) {
        EXPECT_EQ(e.what(), what);
      }
    }
    if (error) std::rethrow_exception(error);
    return one;
  };
  graph::BuildOptions flipped = options;
  flipped.combine_duplicates = !options.combine_duplicates;
  try {
    (void)check(flipped);
  } catch (const std::exception&) {
    // Validation does not depend on the duplicate rule: `options` rethrows.
  }
  return check(options);
}

}  // namespace dinfomap::testing
