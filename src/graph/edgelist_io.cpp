#include "graph/edgelist_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

namespace dinfomap::graph {

namespace {
[[noreturn]] void parse_error(const std::string& path, std::size_t lineno,
                              const char* what) {
  throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " + what);
}

/// Read size of the text reader. A line longer than this grows the buffer.
/// 64 KiB parses as fast as 1 MiB, and once the heap serves blocks that
/// large (after a first big ingest), a freed 1 MiB buffer stays resident.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// Call `on_line(begin, end)` for every line of `file` (without its '\n'),
/// in order, reading through one buffer: the partial last line of a chunk is
/// moved to the front and completed by the next read.
template <class OnLine>
void for_each_line(std::FILE* file, const std::string& path, OnLine&& on_line) {
  std::vector<char> buf(kChunkBytes);
  std::size_t carry = 0;  // bytes of an unfinished line at buf[0..carry)
  for (;;) {
    if (carry == buf.size()) buf.resize(2 * buf.size());
    const std::size_t got =
        std::fread(buf.data() + carry, 1, buf.size() - carry, file);
    if (got == 0) {
      if (std::ferror(file)) throw std::runtime_error("read failed: " + path);
      if (carry > 0) on_line(buf.data(), buf.data() + carry);  // no final '\n'
      return;
    }
    const char* line = buf.data();
    const char* const end = buf.data() + carry + got;
    while (const void* nl = std::memchr(line, '\n', static_cast<std::size_t>(
               end - line))) {
      const char* const eol = static_cast<const char*>(nl);
      on_line(line, eol);
      line = eol + 1;
    }
    carry = static_cast<std::size_t>(end - line);
    std::memmove(buf.data(), line, carry);
  }
}

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }
bool is_comment(char c) { return c == '#' || c == '%'; }
bool at_token_end(const char* s, const char* end) {
  return s == end || is_space(*s);
}
const char* skip_space(const char* s, const char* end) {
  while (s != end && is_space(*s)) ++s;
  return s;
}

/// Parse the vertex id token at `s`, advancing `s` past it.
VertexId parse_id(const char*& s, const char* end, const std::string& path,
                  std::size_t lineno) {
  std::uint64_t id = 0;
  const auto [next, ec] = std::from_chars(s, end, id);  // rejects '-'
  if (ec == std::errc::invalid_argument || !at_token_end(next, end))
    parse_error(path, lineno, "expected 'u v [w]'");
  if (ec == std::errc::result_out_of_range || id >= kInvalidVertex)
    parse_error(path, lineno, "vertex id out of range");
  s = next;
  return static_cast<VertexId>(id);
}

/// Append the edge on line [s, end), unless the line is blank or a comment.
void parse_line(const char* s, const char* end, const std::string& path,
                std::size_t lineno, EdgeList& edges) {
  s = skip_space(s, end);
  if (s == end || is_comment(*s)) return;
  const VertexId u = parse_id(s, end, path, lineno);
  s = skip_space(s, end);
  const VertexId v = parse_id(s, end, path, lineno);
  s = skip_space(s, end);
  double w = 1.0;  // optional weight; tokens after it are ignored
  if (s != end && !is_comment(*s)) {
    const auto [next, ec] = std::from_chars(s, end, w);
    if (ec == std::errc::invalid_argument || !at_token_end(next, end))
      parse_error(path, lineno, "weight is not a number");
    if (ec == std::errc::result_out_of_range)
      parse_error(path, lineno, "weight out of range");
  }
  if (!std::isfinite(w)) parse_error(path, lineno, "non-finite weight");
  if (w <= 0) parse_error(path, lineno, "non-positive weight");
  edges.push_back({u, v, w});
}
}  // namespace

EdgeList read_edge_list(const std::string& path) {
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  if (!file) throw std::runtime_error("cannot open edge list: " + path);
  EdgeList edges;
  std::size_t lineno = 0;
  for_each_line(file.get(), path, [&](const char* begin, const char* end) {
    parse_line(begin, end, path, ++lineno, edges);
  });
  return edges;
}

std::size_t write_edge_list(const std::string& path, const EdgeList& edges) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out << "# dinfomap edge list: u v w\n";
  for (const Edge& e : edges) out << e.u << ' ' << e.v << ' ' << e.w << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
  return edges.size();
}

namespace {
constexpr char kBinaryMagic[4] = {'D', 'N', 'F', 'M'};
struct PackedEdge {
  std::uint32_t u;
  std::uint32_t v;
  double w;
};
static_assert(sizeof(PackedEdge) == 16);
}  // namespace

void write_edge_list_binary(const std::string& path, const EdgeList& edges) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out.write(kBinaryMagic, 4);
  const std::uint64_t count = edges.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Edge& e : edges) {
    const PackedEdge packed{e.u, e.v, e.w};
    out.write(reinterpret_cast<const char*>(&packed), sizeof(packed));
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

EdgeList read_edge_list_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open edge list: " + path);
  char magic[4] = {};
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kBinaryMagic, 4) != 0)
    throw std::runtime_error(path + ": not a dinfomap binary edge list");
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) throw std::runtime_error(path + ": truncated header");
  EdgeList edges;
  edges.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    PackedEdge packed;
    in.read(reinterpret_cast<char*>(&packed), sizeof(packed));
    if (!in) throw std::runtime_error(path + ": truncated edge records");
    if (!std::isfinite(packed.w) || packed.w <= 0)
      throw std::runtime_error(path + ": non-finite or non-positive weight "
                               "in record " + std::to_string(i));
    edges.push_back({packed.u, packed.v, packed.w});
  }
  return edges;
}

}  // namespace dinfomap::graph
