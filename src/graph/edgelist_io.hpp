// Plain-text edge-list I/O ("u v [w]" per line, '#' comments), the common
// interchange format of the SNAP datasets the paper uses.
#pragma once

#include <string>

#include "graph/types.hpp"

namespace dinfomap::graph {

/// Parse an edge list from a file in one pass through a fixed-size buffer.
/// One "u v [w]" edge per line; blank lines and lines starting with '#' or
/// '%' are skipped. Vertex ids must be below kInvalidVertex. The weight
/// defaults to 1 and, when present, must be a finite number > 0; a '#' or
/// '%' in its place starts a trailing comment, and tokens after it are
/// ignored. Throws std::runtime_error on I/O or parse errors (with line
/// number).
EdgeList read_edge_list(const std::string& path);

/// Write "u v w" lines; returns the number of edges written.
std::size_t write_edge_list(const std::string& path, const EdgeList& edges);

/// Binary edge list: magic "DNFM", u64 edge count, then packed
/// (u32 u, u32 v, f64 w) records — ~4× smaller and ~20× faster to parse
/// than the text form for large graphs.
void write_edge_list_binary(const std::string& path, const EdgeList& edges);
EdgeList read_edge_list_binary(const std::string& path);

}  // namespace dinfomap::graph
