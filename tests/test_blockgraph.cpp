// Out-of-core graph substrate (DESIGN.md §15): codec round trips over
// adversarial adjacency shapes, container-file validation, decode-cache
// bounds, and the headline guarantee — partitions and MDL are bit-identical
// whether the engines run on the resident Csr or the blocks backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/dist_infomap.hpp"
#include "graph/blockgraph/blockgraph.hpp"
#include "graph/blockgraph/codec.hpp"
#include "graph/blockgraph/writer.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "graph/graph_view.hpp"
#include "obs/watchdog.hpp"
#include "partition/arc_partition.hpp"

namespace bg = dinfomap::graph::blockgraph;
namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;
namespace obs = dinfomap::obs;
namespace part = dinfomap::partition;

namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dinfomap_bg_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

using BlockFile = TempDir;
using BackendIdentity = TempDir;

/// Encode one block holding the given per-vertex adjacency and decode it
/// back; returns the decoded arcs for comparison against the input.
std::vector<dg::Neighbor> codec_round_trip(
    dg::VertexId first_vertex,
    const std::vector<std::vector<dg::Neighbor>>& adjacency) {
  std::vector<dg::EdgeIndex> off = {0};
  std::vector<dg::Neighbor> arcs;
  for (const auto& nbrs : adjacency) {
    arcs.insert(arcs.end(), nbrs.begin(), nbrs.end());
    off.push_back(arcs.size());
  }
  std::vector<std::uint8_t> payload;
  bg::encode_block(first_vertex, off, arcs, payload);
  std::vector<dg::Neighbor> decoded;
  bg::decode_block(first_vertex, off, payload, decoded);
  return decoded;
}

void expect_arcs_bit_equal(const std::vector<dg::Neighbor>& a,
                           const std::vector<dg::Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].target, b[i].target) << "arc " << i;
    // Bit-level weight comparison: the codec stores raw IEEE-754 images.
    std::uint64_t wa = 0, wb = 0;
    std::memcpy(&wa, &a[i].weight, 8);
    std::memcpy(&wb, &b[i].weight, 8);
    EXPECT_EQ(wa, wb) << "arc " << i;
  }
}

std::vector<dg::Neighbor> flatten(
    const std::vector<std::vector<dg::Neighbor>>& adjacency) {
  std::vector<dg::Neighbor> arcs;
  for (const auto& nbrs : adjacency)
    arcs.insert(arcs.end(), nbrs.begin(), nbrs.end());
  return arcs;
}

}  // namespace

// ---------------------------------------------------------------- codec ----

TEST(BlockCodec, VarintRoundTripAndTruncation) {
  std::vector<std::uint8_t> buf;
  const std::uint64_t values[] = {0,       1,          127,  128,
                                  16383,   16384,      1u << 31,
                                  ~0ull >> 1, ~0ull};
  for (const std::uint64_t v : values) bg::put_varint(buf, v);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  for (const std::uint64_t v : values) {
    std::uint64_t got = 0;
    p = bg::get_varint(p, end, got);
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(p, end);
  // A varint cut mid-continuation must throw, not read past the buffer.
  std::vector<std::uint8_t> big;
  bg::put_varint(big, ~0ull);
  std::uint64_t scratch = 0;
  EXPECT_THROW(bg::get_varint(big.data(), big.data() + big.size() - 1, scratch),
               bg::BlockFormatError);
}

TEST(BlockCodec, ZigZagIsInvolutionAtExtremes) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()})
    EXPECT_EQ(bg::zigzag_decode(bg::zigzag_encode(v)), v);
}

TEST(BlockCodec, RoundTripAdversarialShapes) {
  // Empty adjacency runs interleaved with populated ones.
  {
    const std::vector<std::vector<dg::Neighbor>> adj = {
        {}, {{5, 1.0}}, {}, {}, {{0, 2.5}, {7, 2.5}}, {}};
    expect_arcs_bit_equal(codec_round_trip(0, adj), flatten(adj));
  }
  // Hub vertex: one huge run dominating the block.
  {
    std::vector<std::vector<dg::Neighbor>> adj(3);
    for (dg::VertexId t = 0; t < 5000; ++t)
      adj[1].push_back({t * 3 + 1, 1.0 + (t % 4) * 0.25});
    expect_arcs_bit_equal(codec_round_trip(100, adj), flatten(adj));
  }
  // Unsorted adjacency with back-references: negative deltas must survive
  // (the codec preserves stored order, never assumes sortedness).
  {
    const std::vector<std::vector<dg::Neighbor>> adj = {
        {{900, 1.0}, {2, 1.0}, {901, 1.0}, {0, 1.0}, {450, 1.0}}};
    expect_arcs_bit_equal(codec_round_trip(450, adj), flatten(adj));
  }
  // Extreme id span: first vertex near the top of VertexId, targets at 0.
  {
    const dg::VertexId big = std::numeric_limits<dg::VertexId>::max() - 2;
    const std::vector<std::vector<dg::Neighbor>> adj = {
        {{0, 1.0}, {big, 1.0}, {1, 1.0}}};
    expect_arcs_bit_equal(codec_round_trip(big - 10, adj), flatten(adj));
  }
  // Weight runs: long duplicate runs, run breaks on bitwise inequality
  // (including -0.0 vs +0.0 and subnormals).
  {
    std::vector<std::vector<dg::Neighbor>> adj(1);
    for (int i = 0; i < 300; ++i) adj[0].push_back({static_cast<dg::VertexId>(i), 1.0});
    adj[0].push_back({300, -0.0});
    adj[0].push_back({301, +0.0});
    adj[0].push_back({302, 5e-324});  // smallest subnormal
    adj[0].push_back({303, 0.1 + 0.2});
    expect_arcs_bit_equal(codec_round_trip(7, adj), flatten(adj));
  }
}

TEST(BlockCodec, RejectsTruncatedAndOversizedPayload) {
  const std::vector<std::vector<dg::Neighbor>> adj = {
      {{1, 1.0}, {2, 2.0}}, {{0, 3.0}}};
  std::vector<dg::EdgeIndex> off = {0, 2, 3};
  std::vector<std::uint8_t> payload;
  bg::encode_block(0, off, flatten(adj), payload);
  std::vector<dg::Neighbor> out;
  // Every truncation point must be detected, not decoded as garbage.
  for (std::size_t cut = 0; cut < payload.size(); ++cut)
    EXPECT_THROW(
        bg::decode_block(0, off, {payload.data(), cut}, out),
        bg::BlockFormatError)
        << "cut at " << cut;
  // Trailing bytes beyond the encoded streams are a structural violation.
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_THROW(bg::decode_block(0, off, padded, out), bg::BlockFormatError);
}

// ----------------------------------------------------------- block file ----

TEST_F(BlockFile, WriterReaderRoundTripIsBitExact) {
  const auto gg = gen::lfr_lite({}, 11);
  const auto csr = dg::build_csr(gg.edges, gg.num_vertices);
  bg::WriteOptions opts;
  opts.block_payload_bytes = 2048;  // force many blocks
  const auto s = bg::write_block_file(path("g.blockgraph"), csr, opts);
  EXPECT_EQ(s.num_vertices, csr.num_vertices());
  EXPECT_EQ(s.num_arcs, csr.num_arcs());
  EXPECT_GT(s.num_blocks, 4u);

  const auto graph = bg::BlockGraph::open(path("g.blockgraph"));
  ASSERT_EQ(graph.num_vertices(), csr.num_vertices());
  ASSERT_EQ(graph.num_arcs(), csr.num_arcs());
  // Totals and per-vertex caches carry the Csr's exact bits.
  EXPECT_EQ(graph.total_weight(), csr.total_weight());
  EXPECT_EQ(graph.total_link_weight(), csr.total_link_weight());
  auto cur = graph.cursor();
  for (dg::VertexId u = 0; u < csr.num_vertices(); ++u) {
    EXPECT_EQ(graph.degree(u), csr.degree(u));
    EXPECT_EQ(graph.weighted_degree(u), csr.weighted_degree(u));
    EXPECT_EQ(graph.self_weight(u), csr.self_weight(u));
    const auto got = graph.neighbors(u, cur);
    const auto want = csr.neighbors(u);
    ASSERT_EQ(got.size(), want.size()) << "vertex " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].target, want[i].target);
      EXPECT_EQ(got[i].weight, want[i].weight);
    }
  }
}

TEST_F(BlockFile, OpenRejectsTruncationAndBadMagic) {
  const auto gg = gen::sbm(400, 8, 0.2, 0.01, 3);
  const auto csr = dg::build_csr(gg.edges, gg.num_vertices);
  bg::write_block_file(path("g.blockgraph"), csr, {});

  // Truncate at several depths: header, sections, payload.
  std::ifstream in(path("g.blockgraph"), std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  for (const std::size_t keep :
       {std::size_t{16}, std::size_t{200}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::ofstream out(path("trunc.blockgraph"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_ANY_THROW(bg::BlockGraph::open(path("trunc.blockgraph")))
        << "kept " << keep << " of " << bytes.size();
  }

  // Wrong magic is a format error, not a crash.
  std::vector<char> junk = bytes;
  junk[0] = 'X';
  std::ofstream out(path("junk.blockgraph"), std::ios::binary);
  out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  out.close();
  EXPECT_THROW(bg::BlockGraph::open(path("junk.blockgraph")),
               bg::BlockFormatError);
}

TEST_F(BlockFile, CorruptPayloadBlockIsCaughtOnDecode) {
  const auto gg = gen::ring_of_cliques(40, 6, 5);
  const auto csr = dg::build_csr(gg.edges, gg.num_vertices);
  bg::write_block_file(path("g.blockgraph"), csr, {});
  std::ifstream in(path("g.blockgraph"), std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Flip a byte near the end of the file — inside the last payload block,
  // outside the section CRC — so open() succeeds and the damage is only
  // discoverable by the per-block checksum.
  bytes[bytes.size() - 5] ^= 0x40;
  std::ofstream out(path("g.blockgraph"), std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  const auto graph = bg::BlockGraph::open(path("g.blockgraph"));
  auto cur = graph.cursor();
  bool threw = false;
  try {
    for (dg::VertexId u = 0; u < graph.num_vertices(); ++u)
      (void)graph.neighbors(u, cur);
  } catch (const bg::BlockFormatError&) {
    threw = true;
  }
  EXPECT_TRUE(threw) << "corrupt block decoded silently";
}

TEST_F(BlockFile, CacheStaysBoundedAndCountsEvictions) {
  const auto gg = gen::lfr_lite({}, 23);
  const auto csr = dg::build_csr(gg.edges, gg.num_vertices);
  bg::WriteOptions wopts;
  wopts.block_payload_bytes = 1024;  // many small blocks
  const auto s = bg::write_block_file(path("g.blockgraph"), csr, wopts);
  ASSERT_GT(s.num_blocks, 16u);

  bg::BlockGraph::Options opts;
  opts.cache_slots = 1;
  // Budget ≈ a handful of decoded blocks, far below the full graph.
  opts.cache_bytes = 8 * 1024;
  const auto graph = bg::BlockGraph::open(path("g.blockgraph"), opts);
  {
    auto cur = graph.cursor();
    for (int pass = 0; pass < 2; ++pass)
      for (dg::VertexId u = 0; u < graph.num_vertices(); ++u)
        (void)graph.neighbors(u, cur);
  }
  const auto st = graph.stats();
  EXPECT_GT(st.misses, 0u);
  EXPECT_GT(st.evictions, 0u) << "budget was never enforced";
  EXPECT_GT(st.decode_ns, 0u);
  EXPECT_EQ(st.bytes_mapped, graph.bytes_mapped());
  // The per-slot bound: resident decoded bytes never exceed the budget by
  // more than one block's decoded size (a slot always holds its current
  // block, however large).
  const std::uint64_t max_block_bytes =
      static_cast<std::uint64_t>(csr.num_arcs()) * sizeof(dg::Neighbor);
  EXPECT_LE(st.resident_bytes, opts.cache_bytes + max_block_bytes);
}

TEST_F(BlockFile, ConcurrentCursorsDecodeIndependently) {
  const auto gg = gen::sbm(2000, 20, 0.05, 0.002, 9);
  const auto csr = dg::build_csr(gg.edges, gg.num_vertices);
  bg::write_block_file(path("g.blockgraph"), csr, {});
  bg::BlockGraph::Options opts;
  opts.cache_bytes = 64 * 1024;  // small enough to churn
  const auto graph = bg::BlockGraph::open(path("g.blockgraph"), opts);

  // Each thread holds its own cursor and scans the whole graph; every scan
  // must see exactly the resident adjacency regardless of interleaving.
  constexpr int kThreads = 4;
  std::vector<std::uint64_t> arc_counts(kThreads, 0);
  std::vector<double> weight_sums(kThreads, 0);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      auto cur = graph.cursor();
      for (dg::VertexId u = 0; u < graph.num_vertices(); ++u)
        for (const auto& nb : graph.neighbors(u, cur)) {
          ++arc_counts[t];
          weight_sums[t] += nb.weight;
        }
    });
  }
  for (auto& th : pool) th.join();

  double expected_sum = 0;
  for (dg::VertexId u = 0; u < csr.num_vertices(); ++u)
    for (const auto& nb : csr.neighbors(u)) expected_sum += nb.weight;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(arc_counts[t], csr.num_arcs()) << "thread " << t;
    // Same scan order per thread → bit-identical accumulation.
    EXPECT_EQ(weight_sums[t], expected_sum) << "thread " << t;
  }
}

// ------------------------------------------------------- backend identity ----

TEST_F(BackendIdentity, DelegatePartitionsMatchResident) {
  const auto gg = gen::lfr_lite({}, 31);
  const auto csr = dg::build_csr(gg.edges, gg.num_vertices);
  bg::write_block_file(path("g.blockgraph"), csr, {});
  const auto blocks = bg::BlockGraph::open(path("g.blockgraph"));
  for (const int p : {2, 4, 7}) {
    const auto a = part::make_delegate(dg::GraphView(csr), p);
    const auto b = part::make_delegate(dg::GraphView(blocks), p);
    EXPECT_EQ(a.is_delegate, b.is_delegate) << "p=" << p;
    EXPECT_EQ(a.owners, b.owners) << "p=" << p;
    EXPECT_EQ(a.arc_rank, b.arc_rank) << "p=" << p;
  }
}

TEST_F(BackendIdentity, DistInfomapBitIdenticalAcrossEnginesAndThreads) {
  const auto gg = gen::lfr_lite({}, 17);
  const auto csr = dg::build_csr(gg.edges, gg.num_vertices);
  bg::write_block_file(path("g.blockgraph"), csr, {});
  bg::BlockGraph::Options bopts;
  bopts.cache_bytes = 256 * 1024;  // small: exercise eviction mid-run
  const auto blocks = bg::BlockGraph::open(path("g.blockgraph"), bopts);

  for (const bool use_async : {false, true}) {
    dc::DistInfomapConfig cfg;
    cfg.num_ranks = 4;
    cfg.async = use_async;
    const auto res = dc::distributed_infomap(dg::GraphView(csr), cfg);
    const auto blk = dc::distributed_infomap(dg::GraphView(blocks), cfg);
    EXPECT_EQ(res.assignment, blk.assignment) << "async=" << use_async;
    EXPECT_EQ(res.codelength, blk.codelength)  // bit-identical, not NEAR
        << "async=" << use_async;
  }
}

TEST_F(BackendIdentity, DistInfomapBitIdenticalUnderFaultPlan) {
  const auto gg = gen::sbm(600, 12, 0.15, 0.01, 13);
  const auto csr = dg::build_csr(gg.edges, gg.num_vertices);
  bg::write_block_file(path("g.blockgraph"), csr, {});
  const auto blocks = bg::BlockGraph::open(path("g.blockgraph"));

  dc::DistInfomapConfig cfg;
  cfg.num_ranks = 5;
  cfg.faults.drop = 0.02;
  cfg.faults.duplicate = 0.02;
  cfg.faults.reorder = 0.01;
  cfg.faults.seed = 77;
  cfg.comm_watchdog_ms = 10'000;
  const auto res = dc::distributed_infomap(dg::GraphView(csr), cfg);
  const auto blk = dc::distributed_infomap(dg::GraphView(blocks), cfg);
  EXPECT_EQ(res.assignment, blk.assignment);
  EXPECT_EQ(res.codelength, blk.codelength);
}

TEST(CacheThrashRule, FiresOnlyOnSustainedMissStorm) {
  obs::WatchdogOptions opts;
  // Below the fault floor: stay quiet regardless of ratio.
  EXPECT_TRUE(obs::analyze_block_cache({10, 100, 50}, opts).empty());
  // Hot cache: many faults, low miss ratio.
  EXPECT_TRUE(obs::analyze_block_cache({10'000, 100, 5}, opts).empty());
  // Miss storm without evictions (cold start on a big cache): not thrash.
  EXPECT_TRUE(obs::analyze_block_cache({100, 5'000, 0}, opts).empty());
  // Sustained thrash: mostly misses and the clock hand is spinning.
  const auto anomalies = obs::analyze_block_cache({400, 5'000, 3'000}, opts);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "cache_thrash");
  EXPECT_NE(anomalies[0].detail.find("--block-cache-mb"), std::string::npos);
}
