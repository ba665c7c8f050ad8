// The threaded ingest is bit-identical for every chunk count: read_edge_list
// cuts a regular file into newline-aligned byte ranges and build_csr cuts
// the edge list into slots, and both merge in slot order. These tests drive
// both through their detail:: seams at 1-8 chunks on a crafted file whose
// chunk boundaries land on every kind of line the reader treats specially.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chunk_invariance.hpp"
#include "graph/builder.hpp"
#include "graph/edgelist_io.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace dg = dinfomap::graph;
using dinfomap::testing::build_every_chunk_count;
using dinfomap::testing::kMaxChunks;

namespace {
class IngestChunks : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dinfomap_ingest_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::string write(const std::string& name, const std::string& text) const {
    std::ofstream(path(name), std::ios::binary) << text;
    return path(name);
  }
  std::filesystem::path dir_;
};

/// What a line of the crafted file is.
enum class Kind { kEdge, kCrlfEdge, kReversedDup, kSameDup, kSelfLoop, kComment,
                  kBlank, kCrlfBlank, kTrailingComment };

/// A crafted edge list: its text, the edges it holds in file order, and the
/// kind of each line. Self-loops on vertex 7 recur every 40 lines, so every
/// chunk of every count gets several.
struct Crafted {
  std::string text;
  dg::EdgeList edges;
  std::vector<Kind> kinds;
};

Crafted crafted(int lines) {
  static const char* const kWeights[] = {"1", "0.1", "0.2", "0.3", "2.5"};
  dinfomap::util::Xoshiro256 rng(31);
  Crafted c;
  const auto add_edge = [&](dg::VertexId u, dg::VertexId v, int w, Kind kind,
                            const char* tail) {
    c.text += std::to_string(u) + ' ' + std::to_string(v) + ' ' + kWeights[w] + tail;
    c.edges.push_back({u, v, std::stod(kWeights[w])});
    c.kinds.push_back(kind);
  };
  for (int i = 0; i < lines; ++i) {
    const bool last = i + 1 == lines;  // ends without '\n'
    const char* const nl = last ? "" : "\n";
    if (i % 40 == 17) {
      add_edge(7, 7, static_cast<int>(rng.bounded(5)), Kind::kSelfLoop, nl);
      continue;
    }
    const std::uint64_t roll = last ? 0 : rng.bounded(12);
    const auto u = static_cast<dg::VertexId>(rng.bounded(300));
    const auto v = static_cast<dg::VertexId>(rng.bounded(300));
    const int w = static_cast<int>(rng.bounded(5));
    if (roll <= 2 || (roll <= 4 && c.edges.empty())) {
      add_edge(u, v, w, Kind::kEdge, nl);
    } else if (roll == 3 || roll == 4) {
      const dg::Edge& e = c.edges[rng.bounded(c.edges.size())];
      if (roll == 3) add_edge(e.v, e.u, w, Kind::kReversedDup, nl);
      else add_edge(e.u, e.v, w, Kind::kSameDup, nl);
    } else if (roll == 5) {
      add_edge(u, v, w, Kind::kCrlfEdge, "\r\n");
    } else if (roll == 6) {
      add_edge(u, v, w, Kind::kTrailingComment, " # note\n");
    } else if (roll == 7 || roll == 8) {
      c.text += roll == 7 ? "# comment 1 2\n" : "% 3 4 comment\n";
      c.kinds.push_back(Kind::kComment);
    } else if (roll == 9 || roll == 10) {
      c.text += roll == 9 ? "\n" : " \t\n";
      c.kinds.push_back(Kind::kBlank);
    } else {
      c.text += "\r\n";
      c.kinds.push_back(Kind::kCrlfBlank);
    }
  }
  return c;
}

/// Index of the first line of each chunk after the first when `text` is cut
/// into `chunks` pieces the way read_edge_list cuts a file: a piece starts at
/// the first line beginning at or after its nominal byte offset.
std::vector<std::size_t> chunk_first_lines(const std::string& text, int chunks) {
  std::vector<std::size_t> first;
  const std::size_t size = text.size();
  for (int k = 1; k < chunks; ++k) {
    const std::size_t at = size * static_cast<std::size_t>(k) /
                           static_cast<std::size_t>(chunks);
    const std::size_t nl = text.find('\n', at - 1);
    const std::size_t begin = nl == std::string::npos ? size : nl + 1;
    first.push_back(static_cast<std::size_t>(
        std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(begin), '\n')));
  }
  return first;
}

std::string read_error(const std::string& file, int chunks) {
  try {
    (void)dg::detail::read_edge_list(file, chunks);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}
}  // namespace

TEST_F(IngestChunks, ReadAndBuildAreChunkInvariant) {
  const Crafted c = crafted(4000);
  const std::string file = write("crafted.txt", c.text);

  // The boundaries of counts 2-8 land next to every kind of line.
  std::set<Kind> at_boundary;
  for (int chunks = 2; chunks <= kMaxChunks; ++chunks) {
    for (const std::size_t line : chunk_first_lines(c.text, chunks)) {
      at_boundary.insert(c.kinds[line - 1]);  // last line of the chunk before
      at_boundary.insert(c.kinds[line]);
    }
  }
  for (const Kind k : {Kind::kComment, Kind::kBlank, Kind::kCrlfBlank,
                       Kind::kCrlfEdge, Kind::kReversedDup, Kind::kSelfLoop})
    EXPECT_TRUE(at_boundary.count(k)) << "no boundary next to kind " << static_cast<int>(k);

  for (int chunks = 1; chunks <= kMaxChunks; ++chunks)
    EXPECT_EQ(dg::detail::read_edge_list(file, chunks), c.edges) << chunks << " chunks";
  EXPECT_EQ(dg::read_edge_list(file), c.edges);

  for (const bool drop_loops : {false, true}) {
    dg::BuildOptions opt;
    opt.drop_self_loops = drop_loops;
    const dg::Csr g = build_every_chunk_count(c.edges, 0, opt);
    EXPECT_TRUE(g.validate());
    EXPECT_EQ(g.self_weight(7) > 0, !drop_loops);
  }
}

TEST_F(IngestChunks, FirstMalformedLineNamesItsFileLine) {
  const Crafted c = crafted(4000);
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin <= c.text.size();) {
    const std::size_t nl = c.text.find('\n', begin);
    lines.push_back(c.text.substr(begin, nl == std::string::npos ? std::string::npos
                                                                : nl + 1 - begin));
    if (nl == std::string::npos) break;
    begin = nl + 1;
  }
  ASSERT_EQ(lines.size(), 4000u);
  const std::size_t middle = lines.size() / 2;  // in the middle chunk
  const std::size_t late = lines.size() - 2;    // in the last chunk
  const auto join = [&](bool bad_middle, bool bad_late) {
    std::string text;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (bad_middle && i == middle) text += "3 4 0.5x\n";
      else if (bad_late && i == late) text += "12 3y4 1\n";
      else text += lines[i];
    }
    return text;
  };
  const std::string weight = write("weight.txt", join(true, false));
  const std::string id = write("id.txt", join(false, true));
  const std::string both = write("both.txt", join(true, true));
  for (int chunks = 1; chunks <= kMaxChunks; ++chunks) {
    SCOPED_TRACE(::testing::Message() << chunks << " chunks");
    EXPECT_EQ(read_error(weight, chunks),
              weight + ":" + std::to_string(middle + 1) + ": weight is not a number");
    EXPECT_EQ(read_error(id, chunks),
              id + ":" + std::to_string(late + 1) + ": expected 'u v [w]'");
    EXPECT_EQ(read_error(both, chunks),
              both + ":" + std::to_string(middle + 1) + ": weight is not a number");
  }
}

TEST_F(IngestChunks, FirstInvalidEdgeNamesTheSameFaultAtEveryCount) {
  dg::EdgeList edges = crafted(4000).edges;
  edges[100].w = 0.0;                      // the first fault, in slot 0
  edges[edges.size() - 3].v = 1000000;     // out of range, in the last slot
  try {
    (void)build_every_chunk_count(edges, 300);
    ADD_FAILURE() << "no throw";
  } catch (const dinfomap::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("finite and positive"), std::string::npos)
        << e.what();
  }
}

TEST_F(IngestChunks, StreamIsReadInOnePieceBySameScanner) {
  std::signal(SIGPIPE, SIG_IGN);  // a reader that stops early must not kill us
  const Crafted c = crafted(4000);
  const std::string fifo = path("edges.fifo");
  // Returns the error read_edge_list threw, or "" when it read c.edges.
  const auto read_fifo = [&](const std::string& text) -> std::string {
    if (::mkfifo(fifo.c_str(), 0600) != 0) return "mkfifo failed";
    std::string error;
    std::thread writer([&] { std::ofstream(fifo, std::ios::binary) << text; });
    try {
      EXPECT_EQ(dg::read_edge_list(fifo), c.edges);
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    writer.join();
    std::filesystem::remove(fifo);
    return error;
  };
  EXPECT_EQ(read_fifo(c.text), "");
  const std::string all_but_last = c.text.substr(0, c.text.rfind('\n') + 1);
  EXPECT_EQ(read_fifo(all_but_last + "5 6 0"), fifo + ":4000: non-positive weight");
}
