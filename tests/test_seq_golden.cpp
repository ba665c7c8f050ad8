// Golden pins of the sequential engines' default runs: sequential Infomap
// (Alg. 1), RelaxMap on one thread, directed Infomap, Louvain, the label-flow
// baseline at p = 2 and the hierarchical search. Each pin holds the score's
// bit pattern (codelength, or modularity for Louvain), a hash of the run's
// per-level detail and a hash of the assignment. A refactor of these engines
// must leave every pin where it is; any difference means a result bit moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/directed_infomap.hpp"
#include "core/hierarchy.hpp"
#include "core/labelflow.hpp"
#include "core/louvain.hpp"
#include "core/relaxmap.hpp"
#include "core/seq_infomap.hpp"
#include "golden.hpp"
#include "graph/builder.hpp"
#include "graph/dicsr.hpp"
#include "graph/gen/generators.hpp"
#include "sample_graphs.hpp"

namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;
namespace dt = dinfomap::testing;

namespace {

struct Pin {
  std::uint64_t score_bits;
  std::uint64_t detail_hash;
  std::uint64_t assignment_hash;
  bool operator==(const Pin&) const = default;
};

/// The pin as C++ initializer text, so a failure prints the actual values.
std::string to_source(const Pin& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{0x%llxULL, 0x%llxULL, 0x%llxULL}",
                static_cast<unsigned long long>(p.score_bits),
                static_cast<unsigned long long>(p.detail_hash),
                static_cast<unsigned long long>(p.assignment_hash));
  return buf;
}

Pin pin_of(double score, std::uint64_t detail,
           const dg::Partition& assignment) {
  return {dt::bits(score), detail, dt::hash_words(assignment)};
}

dg::Csr lfr1() {
  const auto gg = gen::lfr_lite({}, 1);
  return dg::build_csr(gg.edges, gg.num_vertices);
}

/// Detail: the singleton bound, every trace row and every level snapshot.
Pin seq_pin(const dc::InfomapResult& r) {
  std::uint64_t h = dt::fnv1a(dt::kFnvBasis, dt::bits(r.singleton_codelength));
  for (const auto& row : r.trace) {
    for (const std::uint64_t w :
         {static_cast<std::uint64_t>(row.level),
          static_cast<std::uint64_t>(row.level_vertices),
          static_cast<std::uint64_t>(row.num_modules),
          dt::bits(row.codelength_before), dt::bits(row.codelength_after),
          static_cast<std::uint64_t>(row.inner_passes), row.moves})
      h = dt::fnv1a(h, w);
  }
  for (const auto& level : r.level_assignments)
    h = dt::fnv1a(h, dt::hash_words(level));
  return pin_of(r.codelength, h, r.assignment);
}

void expect_pin(const Pin& actual, const Pin& expected) {
  EXPECT_EQ(actual, expected) << "actual: " << to_source(actual);
}

TEST(SeqGoldenPin, SequentialInfomapOnLfr) {
  expect_pin(seq_pin(dc::sequential_infomap(lfr1())),
             Pin{0x401c2cda20be61cbULL, 0x7f06688a196deecdULL,
                 0xd089338c173fc8e2ULL});
}

TEST(SeqGoldenPin, SequentialInfomapOnRingOfCliques) {
  const auto gg = gen::ring_of_cliques(8, 5, 0);
  expect_pin(seq_pin(dc::sequential_infomap(
                 dg::build_csr(gg.edges, gg.num_vertices))),
             Pin{0x400831467d1e7061ULL, 0xc2e2b491f637eea9ULL,
                 0x6caabac6ce7bff25ULL});
}

TEST(SeqGoldenPin, RelaxMapOneThread) {
  dc::RelaxMapConfig cfg;
  cfg.num_threads = 1;
  const auto r = dc::relaxmap(lfr1(), cfg);
  const std::uint64_t detail =
      dt::fnv1a(dt::fnv1a(dt::kFnvBasis, dt::bits(r.singleton_codelength)),
                static_cast<std::uint64_t>(r.levels));
  expect_pin(pin_of(r.codelength, detail, r.assignment),
             Pin{0x401c35ecbb81cc25ULL, 0x4345e5427c8954b5ULL,
                 0x192c7aa3b60974c1ULL});
}

TEST(SeqGoldenPin, DirectedInfomapOnCliqueRing) {
  const auto r = dc::directed_infomap(
      dg::DiCsr::from_edges(dt::directed_clique_ring(6, 5)));
  const std::uint64_t detail =
      dt::fnv1a(dt::fnv1a(dt::kFnvBasis, dt::bits(r.singleton_codelength)),
                static_cast<std::uint64_t>(r.levels));
  expect_pin(pin_of(r.codelength, detail, r.assignment),
             Pin{0x4002fa2d674cc310ULL, 0x36aad852ceb250a6ULL,
                 0xed6a5bd5c08a9104ULL});
}

TEST(SeqGoldenPin, Louvain) {
  const auto r = dc::louvain(lfr1());
  const std::uint64_t detail =
      dt::fnv1a(dt::kFnvBasis, static_cast<std::uint64_t>(r.levels));
  expect_pin(pin_of(r.modularity, detail, r.assignment),
             Pin{0x3fe737f3e1b8bfcfULL, 0xc7c2bf3b330983e6ULL,
                 0x69f9ad84d96d92caULL});
}

TEST(SeqGoldenPin, LabelFlowTwoRanks) {
  const auto r = dc::distributed_labelflow(lfr1(), 2);
  const std::uint64_t detail =
      dt::fnv1a(dt::kFnvBasis, static_cast<std::uint64_t>(r.total_rounds));
  expect_pin(pin_of(r.codelength, detail, r.assignment),
             Pin{0x401c9ea4ddd3b96eULL, 0x262b7cb79fbf4a45ULL,
                 0x2ca0c161baad651bULL});
}

TEST(SeqGoldenPin, HierarchicalInfomapOnNestedSbm) {
  const auto g = dt::nested_graph(5);
  const auto r = dc::hierarchical_infomap(g);
  std::uint64_t detail =
      dt::fnv1a(dt::fnv1a(dt::kFnvBasis, dt::bits(r.two_level_codelength)),
                static_cast<std::uint64_t>(r.hierarchy.depth()));
  for (const std::string& path : r.hierarchy.vertex_paths(g.num_vertices()))
    for (const char c : path)
      detail = dt::fnv1a(detail, static_cast<std::uint8_t>(c));
  expect_pin(pin_of(r.codelength, detail, r.leaf_assignment),
             Pin{0x4019836f9a0d28bcULL, 0x84d0401e1f1318eaULL,
                 0x810c9fdceed68f25ULL});
}

}  // namespace
