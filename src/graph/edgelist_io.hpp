// Plain-text edge-list I/O ("u v [w]" per line, '#' comments), the common
// interchange format of the SNAP datasets the paper uses.
#pragma once

#include <string>

#include "graph/types.hpp"

namespace dinfomap::graph {

/// Parse an edge list from a file, in file order. One "u v [w]" edge per
/// line; blank lines and lines starting with '#' or '%' are skipped. Vertex
/// ids must be below kInvalidVertex. The weight defaults to 1 and, when
/// present, must be a finite number > 0; a '#' or '%' in its place starts a
/// trailing comment, and tokens after it are ignored. Throws
/// std::runtime_error on I/O or parse errors; a parse error names the first
/// malformed line of the file ("path:line: what"). A regular file is read in
/// newline-aligned byte ranges on util::slots_for(file size, 1 MiB) threads,
/// a stream (pipe, FIFO) in one piece; the result does not depend on either.
EdgeList read_edge_list(const std::string& path);

/// Write "u v w" lines; returns the number of edges written.
std::size_t write_edge_list(const std::string& path, const EdgeList& edges);

/// Binary edge list: magic "DNFM", u64 edge count, then packed
/// (u32 u, u32 v, f64 w) records — ~4× smaller and ~20× faster to parse
/// than the text form for large graphs.
void write_edge_list_binary(const std::string& path, const EdgeList& edges);
EdgeList read_edge_list_binary(const std::string& path);

namespace detail {
/// read_edge_list with a regular file cut into `chunks` byte ranges instead
/// of a count derived from its size; `chunks` <= 0 derives it. The result
/// and any error are the same for every count. A test seam.
EdgeList read_edge_list(const std::string& path, int chunks);
}  // namespace detail

}  // namespace dinfomap::graph
