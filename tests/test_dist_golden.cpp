// Golden pins of the distributed Infomap's results. The graph has two planted
// communities, a closed triangle (a component with flow but no way out) and
// isolated ids, the shapes whose bookkeeping the sync round special-cases.
// Each run must reproduce the pinned codelength bits, per-level rows,
// stage-1 round series and assignment hash exactly, for p ∈ {1, 3, 4}, both
// engines, both graph backends and both transports. A performance change
// must leave every pin where it is; any difference means a result bit moved.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/socket_transport.hpp"
#include "core/dist_infomap.hpp"
#include "graph/blockgraph/blockgraph.hpp"
#include "graph/blockgraph/writer.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"
#include "graph/graph_view.hpp"

namespace bg = dinfomap::graph::blockgraph;
namespace cm = dinfomap::comm;
namespace dc = dinfomap::core;
namespace dg = dinfomap::graph;
namespace gen = dinfomap::graph::gen;

namespace {

/// Two planted communities on ids 0..47, a triangle on 48..50, and isolated
/// ids 51..59.
dg::Csr golden_graph() {
  auto gg = gen::sbm(48, 2, 0.5, 0.04, 5);
  gg.edges.push_back({48, 49, 1.0});
  gg.edges.push_back({49, 50, 1.0});
  gg.edges.push_back({48, 50, 1.0});
  return dg::build_csr(gg.edges, 60);
}

dc::DistInfomapConfig golden_config(int p, bool async) {
  dc::DistInfomapConfig cfg;
  cfg.num_ranks = p;
  cfg.async = async;
  cfg.degree_threshold = 14;  // delegates the densest community members
  return cfg;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// One pinned row of DistInfomapResult::trace, floats as bit patterns.
struct LevelRow {
  int level;
  std::uint64_t level_vertices;
  std::uint64_t num_modules;
  std::uint64_t before_bits;
  std::uint64_t after_bits;
  int inner_passes;
  std::uint64_t moves;
  bool operator==(const LevelRow&) const = default;
};

struct Fingerprint {
  std::uint64_t codelength_bits;
  std::uint64_t singleton_bits;
  std::vector<LevelRow> levels;
  std::size_t num_rounds;
  std::uint64_t rounds_hash;  ///< FNV-1a over stage1_round_codelengths bits
  std::uint64_t assignment_hash;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const dc::DistInfomapResult& r) {
  Fingerprint f{bits(r.codelength), bits(r.singleton_codelength), {},
                r.stage1_round_codelengths.size(), kFnvBasis, kFnvBasis};
  for (const auto& row : r.trace)
    f.levels.push_back({row.level, row.level_vertices, row.num_modules,
                        bits(row.codelength_before), bits(row.codelength_after),
                        row.inner_passes, row.moves});
  for (const double l : r.stage1_round_codelengths)
    f.rounds_hash = fnv1a(f.rounds_hash, bits(l));
  for (const auto m : r.assignment) f.assignment_hash = fnv1a(f.assignment_hash, m);
  return f;
}

/// The fingerprint as C++ initializer text, so a failure prints the actual
/// values in the form of the table below.
std::string to_source(const Fingerprint& f) {
  std::ostringstream os;
  os << std::hex << "{0x" << f.codelength_bits << "ULL, 0x" << f.singleton_bits
     << "ULL,\n {";
  for (const auto& row : f.levels)
    os << std::dec << "{" << row.level << ", " << row.level_vertices << ", "
       << row.num_modules << ", " << std::hex << "0x" << row.before_bits
       << "ULL, 0x" << row.after_bits << "ULL, " << std::dec << row.inner_passes
       << ", " << row.moves << "},\n  ";
  os << "},\n " << std::dec << f.num_rounds << ", " << std::hex << "0x"
     << f.rounds_hash << "ULL, 0x" << f.assignment_hash << "ULL}";
  return os.str();
}

struct Golden {
  int p;
  bool async;
  Fingerprint expected;
};

// clang-format off
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> table = {
    {1, false,
     {0x40142005749887eaULL, 0x401e583b64f89d42ULL,
      {{0, 60, 12, 0x401e583b64f89d42ULL, 0x40142005749887eaULL, 6, 87},
       {1, 12, 12, 0x40142005749887eaULL, 0x40142005749887eaULL, 1, 0},
       },
      6, 0x4657450ffbc782d7ULL, 0x34f50ba792c82684ULL}},
    {1, true,
     {0x40142005749887eaULL, 0x401e583b64f89d42ULL,
      {{0, 60, 12, 0x401e583b64f89d42ULL, 0x40142005749887eaULL, 4, 60},
       {1, 12, 12, 0x40142005749887eaULL, 0x40142005749887eaULL, 4, 0},
       },
      4, 0xd9fd79c668a0814dULL, 0x34f50ba792c82684ULL}},
    {3, false,
     {0x4014e07d4ae97871ULL, 0x401e583b64f89d44ULL,
      {{0, 60, 20, 0x401e583b64f89d44ULL, 0x401951395012dd52ULL, 6, 84},
       {1, 20, 12, 0x401951395012dd52ULL, 0x4014e07d4ae97871ULL, 5, 16},
       {2, 12, 12, 0x4014e07d4ae97871ULL, 0x4014e07d4ae97871ULL, 1, 0},
       },
      6, 0x177b6349865fa4acULL, 0x49fbee37d6565a45ULL}},
    {3, true,
     {0x4016069d5e15d524ULL, 0x401e583b64f89d44ULL,
      {{0, 60, 13, 0x401e583b64f89d44ULL, 0x4016490356cfeffeULL, 4, 133},
       {1, 13, 11, 0x4016490356cfeffeULL, 0x4016069d5e15d524ULL, 4, 5},
       {2, 11, 11, 0x4016069d5e15d524ULL, 0x4016069d5e15d524ULL, 4, 0},
       },
      4, 0xc40f22f44c8c32afULL, 0x7e57e29e42a5a78eULL}},
    {4, false,
     {0x40142005749887ecULL, 0x401e583b64f89d44ULL,
      {{0, 60, 17, 0x401e583b64f89d44ULL, 0x4018892a8b02afe4ULL, 8, 97},
       {1, 17, 12, 0x4018892a8b02afe2ULL, 0x40142005749887ecULL, 5, 7},
       {2, 12, 12, 0x40142005749887ecULL, 0x40142005749887ecULL, 1, 0},
       },
      8, 0x70df6895a920a275ULL, 0x34f50ba792c82684ULL}},
    {4, true,
     {0x401584adddf75efcULL, 0x401e583b64f89d44ULL,
      {{0, 60, 14, 0x401e583b64f89d44ULL, 0x401611b27ec668dcULL, 5, 147},
       {1, 14, 12, 0x401611b27ec668dcULL, 0x401584adddf75efcULL, 4, 6},
       {2, 12, 12, 0x401584adddf75efcULL, 0x401584adddf75efcULL, 4, 0},
       },
      5, 0xb994e8f0f699cc80ULL, 0x1a45a16e99905c64ULL}},
  };
  return table;
}
// clang-format on

/// Run one job over SocketTransport endpoints, one thread per rank, and
/// return rank 0's assembled result.
dc::DistInfomapResult run_over_sockets(const dg::GraphView& graph,
                                       const dc::DistInfomapConfig& cfg) {
  std::string dir = "/tmp/dinfomap_golden_XXXXXX";
  EXPECT_NE(::mkdtemp(dir.data()), nullptr);
  dc::DistInfomapResult root;
  std::vector<std::exception_ptr> failures(static_cast<std::size_t>(cfg.num_ranks));
  std::vector<std::thread> ranks;
  for (int r = 0; r < cfg.num_ranks; ++r) {
    ranks.emplace_back([&, r] {
      try {
        cm::SocketTransportOptions opts;
        opts.dir = dir;
        cm::SocketTransport transport(r, cfg.num_ranks, opts, {});
        auto result = dc::distributed_infomap_rank(graph, cfg, transport);
        if (r == 0) root = std::move(result);
      } catch (...) {
        failures[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : ranks) t.join();
  ::rmdir(dir.c_str());
  for (auto& f : failures)
    if (f) std::rethrow_exception(f);
  return root;
}

class GoldenPin : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dinfomap_golden_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(GoldenPin, ResidentAndBlocksBackendsReproducePinnedResults) {
  const auto csr = golden_graph();
  const std::string file = (dir_ / "g.blockgraph").string();
  bg::WriteOptions wopts;
  wopts.block_payload_bytes = 256;  // several blocks on a 60-vertex graph
  bg::write_block_file(file, csr, wopts);
  const auto blocks = bg::BlockGraph::open(file);
  for (const Golden& g : goldens()) {
    const auto cfg = golden_config(g.p, g.async);
    const auto resident = fingerprint(dc::distributed_infomap(dg::GraphView(csr), cfg));
    EXPECT_EQ(resident, g.expected)
        << "resident p=" << g.p << " async=" << g.async << " actual:\n"
        << to_source(resident);
    const auto blocked = fingerprint(dc::distributed_infomap(dg::GraphView(blocks), cfg));
    EXPECT_EQ(blocked, g.expected)
        << "blocks p=" << g.p << " async=" << g.async << " actual:\n"
        << to_source(blocked);
  }
}

TEST_F(GoldenPin, SocketTransportReproducesPinnedResults) {
  const auto csr = golden_graph();
  for (const Golden& g : goldens()) {
    if (g.p == 1) continue;  // no peers, so no socket mesh to exercise
    const auto cfg = golden_config(g.p, g.async);
    const auto socket = fingerprint(run_over_sockets(dg::GraphView(csr), cfg));
    EXPECT_EQ(socket, g.expected)
        << "socket p=" << g.p << " async=" << g.async << " actual:\n"
        << to_source(socket);
  }
}

}  // namespace
