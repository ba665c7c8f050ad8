#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "graph/builder.hpp"
#include "graph/edgelist_io.hpp"
#include "io/clustering_io.hpp"
#include "io/datasets.hpp"
#include "util/check.hpp"

namespace dg = dinfomap::graph;
namespace dio = dinfomap::io;

namespace {
class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dinfomap_test_" + std::to_string(::getpid()));
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

using EdgeListIo = TempDir;
using ClusteringIo = TempDir;
}  // namespace

TEST_F(EdgeListIo, RoundTrip) {
  const dg::EdgeList edges = {{0, 1, 1.0}, {1, 2, 2.5}, {0, 3, 1.0}};
  dg::write_edge_list(path("g.txt"), edges);
  const auto back = dg::read_edge_list(path("g.txt"));
  EXPECT_EQ(back, edges);
}

TEST_F(EdgeListIo, CommentsAndDefaultsAndBlankLines) {
  std::ofstream out(path("g.txt"));
  out << "# comment\n% another style\n\n0 1\n2 3 4.5\n";
  out.close();
  const auto edges = dg::read_edge_list(path("g.txt"));
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges[0].w, 1.0);
  EXPECT_DOUBLE_EQ(edges[1].w, 4.5);
}

TEST_F(EdgeListIo, MalformedLineReportsLineNumber) {
  std::ofstream out(path("bad.txt"));
  out << "0 1\nnot numbers\n";
  out.close();
  try {
    (void)dg::read_edge_list(path("bad.txt"));
    FAIL() << "should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos);
  }
}

TEST_F(EdgeListIo, NegativeWeightRejected) {
  std::ofstream out(path("neg.txt"));
  out << "0 1 -3\n";
  out.close();
  EXPECT_THROW((void)dg::read_edge_list(path("neg.txt")), std::runtime_error);
}

namespace {
/// The message of the runtime_error read_edge_list throws, or "" if none.
std::string read_error(const std::string& file) {
  try {
    (void)dg::read_edge_list(file);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// read_edge_list reads through a buffer of this many bytes.
constexpr std::size_t kChunk = std::size_t{1} << 16;
}  // namespace

TEST_F(EdgeListIo, RejectsOversizedIdsAndBadWeights) {
  for (const char* bad : {"4294967296 1",       // wraps to 0 through a cast
                          "0 4294967296",
                          "4294967295 1",       // == kInvalidVertex
                          "99999999999999999999999 1",
                          "-1 2", "0 -2", "0 1abc",
                          "0 1 inf", "0 1 -inf", "0 1 nan", "0 1 1e999",
                          "0 1 abc", "0 1 2.5x", "0 1 0", "0 1 -3"}) {
    const std::string msg =
        read_error(write("bad.txt", std::string("0 1\n# ok\n") + bad + "\n"));
    EXPECT_NE(msg.find("bad.txt:3: "), std::string::npos)
        << "line '" << bad << "' gave: " << msg;
  }
  // The largest id, trailing comments and extra columns stay accepted.
  const auto edges = dg::read_edge_list(
      write("ok.txt", "4294967294 0\n0 1 # note\n2 3 2.5 1700000000\n4 5 1e-3\n"));
  EXPECT_EQ(edges, (dg::EdgeList{{4294967294u, 0, 1.0}, {0, 1, 1.0},
                                 {2, 3, 2.5}, {4, 5, 1e-3}}));

  const double inf = std::numeric_limits<double>::infinity();
  for (const double w : {inf, std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    dg::write_edge_list_binary(path("w.bin"), {{0, 1, 1.0}, {1, 2, w}});
    EXPECT_THROW((void)dg::read_edge_list_binary(path("w.bin")),
                 std::runtime_error) << w;
  }
  EXPECT_THROW(dg::build_csr({{0, 1, inf}}), dinfomap::ContractViolation);
}

TEST_F(EdgeListIo, LineStraddlingChunkBoundary) {
  // A comment sized so the next line starts 5 bytes before the boundary,
  // which then splits its first id "123456" after "12345".
  std::string text = "#" + std::string(kChunk - 7, 'x') + "\n";
  text += "123456 654321 2.5\n";
  dg::EdgeList expected = {{123456, 654321, 2.5}};
  for (dg::VertexId i = 0; i < 30000; ++i) {  // spans several more chunks
    text += std::to_string(i) + ' ' + std::to_string(3 * i + 1) + ' ' +
            std::to_string(i % 7 + 1) + '\n';
    expected.push_back({i, 3 * i + 1, static_cast<double>(i % 7 + 1)});
  }
  ASSERT_GT(text.size(), 3 * kChunk);
  EXPECT_EQ(dg::read_edge_list(write("g.txt", text)), expected);
}

TEST_F(EdgeListIo, LineLongerThanBuffer) {
  std::string text = "0 1\n";
  text += std::string(3 * kChunk, ' ') + "7 8 3\n";   // padded edge line
  text += "#" + std::string(2 * kChunk, '#') + "\n";  // long comment
  text += "9 10\n";
  EXPECT_EQ(dg::read_edge_list(write("long.txt", text)),
            (dg::EdgeList{{0, 1, 1.0}, {7, 8, 3.0}, {9, 10, 1.0}}));
  EXPECT_NE(read_error(write("long_bad.txt", text + "x\n")).find(":5: "),
            std::string::npos);
}

TEST_F(EdgeListIo, NoTrailingNewline) {
  EXPECT_EQ(dg::read_edge_list(write("g.txt", "0 1\n2 3 4.5")),
            (dg::EdgeList{{0, 1, 1.0}, {2, 3, 4.5}}));
  EXPECT_NE(read_error(write("bad.txt", "0 1\n2 x")).find("bad.txt:2: "),
            std::string::npos);
}

TEST_F(EdgeListIo, CrlfLineEndings) {
  EXPECT_EQ(dg::read_edge_list(write("g.txt", "# c\r\n0 1\r\n2 3 4.5\r\n\r\n5 6")),
            (dg::EdgeList{{0, 1, 1.0}, {2, 3, 4.5}, {5, 6, 1.0}}));
}

TEST_F(EdgeListIo, OnlyComments) {
  EXPECT_TRUE(dg::read_edge_list(write("g.txt", "# a\n% b\n\n  \t\n# c")).empty());
  EXPECT_TRUE(dg::read_edge_list(write("empty.txt", "")).empty());
}

TEST_F(EdgeListIo, MalformedLinePastFirstChunkReportsTrueLine) {
  std::string text;
  for (int i = 0; i < 30000; ++i) text += std::to_string(i) + " 1\n";
  ASSERT_GT(text.size(), 2 * kChunk);
  text += "1 2 3\n2 y\n";  // line 30002
  EXPECT_NE(read_error(write("bad.txt", text)).find("bad.txt:30002: "),
            std::string::npos);
}

TEST_F(EdgeListIo, MissingFileThrows) {
  EXPECT_THROW((void)dg::read_edge_list(path("nope.txt")), std::runtime_error);
}

TEST_F(EdgeListIo, BinaryRoundTrip) {
  const dg::EdgeList edges = {{0, 1, 1.0}, {1, 2, 2.5}, {100000, 3, 0.125}};
  dg::write_edge_list_binary(path("g.bin"), edges);
  EXPECT_EQ(dg::read_edge_list_binary(path("g.bin")), edges);
}

TEST_F(EdgeListIo, BinaryRejectsWrongMagic) {
  std::ofstream out(path("bad.bin"), std::ios::binary);
  out << "NOPEnope";
  out.close();
  EXPECT_THROW((void)dg::read_edge_list_binary(path("bad.bin")),
               std::runtime_error);
}

TEST_F(EdgeListIo, BinaryRejectsTruncation) {
  const dg::EdgeList edges = {{0, 1, 1.0}, {1, 2, 2.5}};
  dg::write_edge_list_binary(path("t.bin"), edges);
  // Chop the last 8 bytes off.
  const auto full = std::filesystem::file_size(path("t.bin"));
  std::filesystem::resize_file(path("t.bin"), full - 8);
  EXPECT_THROW((void)dg::read_edge_list_binary(path("t.bin")),
               std::runtime_error);
}

TEST_F(ClusteringIo, RoundTrip) {
  const dg::Partition p = {0, 0, 1, 2, 1};
  dio::write_clustering(path("c.txt"), p);
  EXPECT_EQ(dio::read_clustering(path("c.txt")), p);
}

TEST_F(ClusteringIo, MissingVertexDetected) {
  std::ofstream out(path("c.txt"));
  out << "0 0\n2 1\n";  // vertex 1 missing
  out.close();
  EXPECT_THROW((void)dio::read_clustering(path("c.txt")), std::runtime_error);
}

TEST(Datasets, RegistryCoversTableOne) {
  const auto& reg = dio::dataset_registry();
  EXPECT_EQ(reg.size(), 9u);  // the nine Table 1 rows
  for (const auto& spec : reg) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.paper_name.empty());
  }
}

TEST(Datasets, SpecLookup) {
  EXPECT_EQ(dio::dataset_spec("amazon").paper_name, "Amazon");
  EXPECT_THROW(dio::dataset_spec("nosuch"), std::out_of_range);
}

TEST(Datasets, LoadsAreDeterministic) {
  const auto a = dio::load_dataset("amazon");
  const auto b = dio::load_dataset("amazon");
  EXPECT_EQ(a.edges, b.edges);
}

TEST(Datasets, GroundTruthFlagsAccurate) {
  for (const auto& spec : dio::dataset_registry()) {
    if (spec.size != dio::DatasetSpec::Size::kSmall) continue;  // keep it fast
    const auto g = dio::load_dataset(spec.name);
    EXPECT_EQ(g.ground_truth.has_value(), spec.has_ground_truth) << spec.name;
    const auto csr = dg::build_csr(g.edges, g.num_vertices);
    EXPECT_GT(csr.num_edges(), 0u);
  }
}
