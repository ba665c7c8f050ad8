// Synthetic graph generators.
//
// These stand in for the paper's real-world datasets (Table 1), which are
// multi-gigabyte crawls unavailable here. Each generator targets a property
// the distributed algorithm is sensitive to: power-law hubs (BA, R-MAT),
// planted community structure with ground truth (SBM, LFR-lite,
// ring-of-cliques), or neither (Erdős–Rényi control).
#pragma once

#include <cstdint>
#include <optional>

#include "graph/types.hpp"

namespace dinfomap::graph::gen {

/// Generator output: edges, vertex count, and the planted partition when the
/// model defines one.
struct GeneratedGraph {
  EdgeList edges;
  VertexId num_vertices = 0;
  std::optional<Partition> ground_truth;
};

/// G(n, m): m uniform random distinct non-self edges.
GeneratedGraph erdos_renyi(VertexId n, EdgeIndex m, std::uint64_t seed);

/// Barabási–Albert preferential attachment: each new vertex attaches
/// `attach` edges to existing vertices with probability ∝ degree. Produces
/// the heavy hub tail that motivates delegate partitioning.
GeneratedGraph barabasi_albert(VertexId n, VertexId attach, std::uint64_t seed);

/// R-MAT (Graph500-style) recursive matrix sampling: 2^scale vertices,
/// edge_factor·2^scale edges, corner probabilities (a,b,c,d).
GeneratedGraph rmat(int scale, int edge_factor, double a, double b, double c,
                    std::uint64_t seed);

/// Stochastic block model with equal-size blocks: intra-block edge
/// probability p_in, inter-block p_out. Ground truth = block id.
GeneratedGraph sbm(VertexId n, VertexId num_blocks, double p_in, double p_out,
                   std::uint64_t seed);

struct LfrLiteParams {
  VertexId n = 1000;
  double degree_exponent = 2.5;   ///< power-law exponent of degrees
  VertexId min_degree = 4;
  VertexId max_degree = 100;      ///< hub cap (hubs emerge below this)
  double community_exponent = 2.0;
  VertexId min_community = 20;
  VertexId max_community = 200;
  double mixing = 0.2;            ///< μ: fraction of each vertex's edges leaving its community
};

/// Simplified LFR benchmark: power-law degrees and community sizes, a
/// (1−μ) fraction of stubs wired inside the community by configuration
/// model, the μ fraction wired globally. Ground truth = community id.
GeneratedGraph lfr_lite(const LfrLiteParams& params, std::uint64_t seed);

/// `num_cliques` cliques of `clique_size` vertices, adjacent cliques joined
/// by a single bridge edge (ring). The classic crisp-community testbed.
GeneratedGraph ring_of_cliques(VertexId num_cliques, VertexId clique_size,
                               std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice of even degree `k`, each lattice
/// edge rewired with probability `beta`. High clustering without strong
/// community structure — a useful negative control.
GeneratedGraph watts_strogatz(VertexId n, VertexId k, double beta,
                              std::uint64_t seed);

}  // namespace dinfomap::graph::gen
