// graphpack — convert a graph into the out-of-core `dinfomap.blockgraph/1`
// format (DESIGN.md §15). The conversion is the one step that holds the
// graph resident; every downstream consumer streams blocks through the
// bounded decode cache.
//
//   graphpack <input> <out.blockgraph> [--block-kb N] [--verify]
//
//   input: text edge list ("u v [w]", '#' comments), a .bin binary edge
//          list, or gen:<lfr|ba|rmat|sbm|ring|er>[:seed] for a synthetic
//          graph (same families as dinfomap_cli generate).
//
// The summary line reports compression (encoded bytes/arc vs the resident
// CSR's 16 bytes/arc) and the process's peak RSS, so conversion memory is
// visible alongside the file it produced.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "graph/blockgraph/blockgraph.hpp"
#include "graph/blockgraph/writer.hpp"
#include "graph/builder.hpp"
#include "graph/edgelist_io.hpp"
#include "graph/gen/generators.hpp"

namespace {

using namespace dinfomap;

int usage() {
  std::fprintf(
      stderr,
      "usage: graphpack <edges.txt|edges.bin|gen:family[:seed]> "
      "<out.blockgraph> [--block-kb N] [--verify]\n"
      "  family: lfr | ba | rmat | sbm | ring | er\n"
      "  --block-kb N   target encoded payload per block (default 64)\n"
      "  --verify       re-open the file and checksum-decode every block\n");
  return 2;
}

/// Peak resident set size (kB) from /proc/self/status — the "how much memory
/// did the conversion itself need" number in the summary.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

graph::EdgeList load_edges(const std::string& in) {
  if (in.rfind("gen:", 0) == 0) {
    std::string family = in.substr(4);
    std::uint64_t seed = 42;
    if (const auto colon = family.find(':'); colon != std::string::npos) {
      seed = std::strtoull(family.c_str() + colon + 1, nullptr, 10);
      family.resize(colon);
    }
    graph::gen::GeneratedGraph g;
    if (family == "lfr") {
      graph::gen::LfrLiteParams p;
      p.n = 5000;
      g = graph::gen::lfr_lite(p, seed);
    } else if (family == "ba") {
      g = graph::gen::barabasi_albert(5000, 3, seed);
    } else if (family == "rmat") {
      g = graph::gen::rmat(13, 8, 0.57, 0.19, 0.19, seed);
    } else if (family == "sbm") {
      g = graph::gen::sbm(5000, 25, 0.05, 0.001, seed);
    } else if (family == "ring") {
      g = graph::gen::ring_of_cliques(100, 8, seed);
    } else if (family == "er") {
      g = graph::gen::erdos_renyi(5000, 25000, seed);
    } else {
      throw std::runtime_error("unknown generator family: " + family);
    }
    return std::move(g.edges);
  }
  if (in.size() > 4 && in.compare(in.size() - 4, 4, ".bin") == 0)
    return graph::read_edge_list_binary(in);
  return graph::read_edge_list(in);
}

int run(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string in = argv[1];
  const std::string out = argv[2];
  graph::blockgraph::WriteOptions opts;
  bool verify = false;
  for (int i = 3; i < argc;) {
    if (!std::strcmp(argv[i], "--verify")) {
      verify = true;
      ++i;
    } else if (!std::strcmp(argv[i], "--block-kb") && i + 1 < argc) {
      const long kb = std::strtol(argv[i + 1], nullptr, 10);
      if (kb < 1 || kb > 1 << 20) {
        std::fprintf(stderr, "error: --block-kb out of range [1, 1048576]\n");
        return 2;
      }
      opts.block_payload_bytes = static_cast<std::size_t>(kb) * 1024;
      i += 2;
    } else {
      return usage();
    }
  }

  graph::Csr csr;
  {
    graph::EdgeList edges = load_edges(in);
    csr = graph::build_csr(edges);
  }  // edge list freed before the write

  const auto s = graph::blockgraph::write_block_file(out, csr, opts);

  // Resident CSR footprint: offsets (n+1)·8 + adjacency |arcs|·16 +
  // per-vertex self/wdeg caches 2·n·8.
  const double resident_bytes =
      static_cast<double>(s.num_vertices + 1) * 8.0 +
      static_cast<double>(s.num_arcs) * 16.0 +
      static_cast<double>(s.num_vertices) * 16.0;
  const double arcs = s.num_arcs > 0 ? static_cast<double>(s.num_arcs) : 1.0;
  std::printf(
      "packed %llu vertices, %llu arcs into %llu blocks: %.2f bytes/arc "
      "encoded (resident CSR: 16), file %.1f MiB vs resident %.1f MiB "
      "(%.0f%%), peak RSS %.1f MiB\n",
      static_cast<unsigned long long>(s.num_vertices),
      static_cast<unsigned long long>(s.num_arcs),
      static_cast<unsigned long long>(s.num_blocks),
      static_cast<double>(s.payload_bytes) / arcs,
      static_cast<double>(s.file_bytes) / (1024.0 * 1024.0),
      resident_bytes / (1024.0 * 1024.0),
      100.0 * static_cast<double>(s.file_bytes) / resident_bytes,
      static_cast<double>(peak_rss_kb()) / 1024.0);

  if (verify) {
    auto bg = graph::blockgraph::BlockGraph::open(out);
    auto cur = bg.cursor();
    std::uint64_t checked_arcs = 0;
    for (graph::VertexId u = 0; u < bg.num_vertices(); ++u)
      checked_arcs += bg.neighbors(u, cur).size();  // throws on bad block
    if (checked_arcs != s.num_arcs) {
      std::fprintf(stderr, "verify FAILED: decoded %llu arcs, expected %llu\n",
                   static_cast<unsigned long long>(checked_arcs),
                   static_cast<unsigned long long>(s.num_arcs));
      return 1;
    }
    std::printf("verify: all %llu blocks decode and checksum clean\n",
                static_cast<unsigned long long>(s.num_blocks));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
