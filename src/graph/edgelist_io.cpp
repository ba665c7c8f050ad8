#include "graph/edgelist_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace dinfomap::graph {

namespace {
[[noreturn]] void parse_error(const std::string& path, std::size_t lineno,
                              const char* what) {
  throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " + what);
}

/// Read size of the text reader. A line longer than this grows the buffer.
/// 64 KiB parses as fast as 1 MiB, and once the heap serves blocks that
/// large (after a first big ingest), a freed 1 MiB buffer stays resident.
constexpr std::size_t kReadBytes = std::size_t{1} << 16;

/// Each slot of a parallel read gets at least this much of the file.
constexpr std::uint64_t kMinSlotBytes = std::uint64_t{1} << 20;

/// A read-only file descriptor, closed on scope exit.
class Fd {
 public:
  explicit Fd(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// The bytes [pos, end) of a regular file, read with pread so that slots
/// share one descriptor; or, for a stream (pipe, FIFO), whatever read()
/// returns until the end of input.
struct Source {
  int fd = -1;
  bool positional = false;
  std::uint64_t pos = 0;
  std::uint64_t end = 0;

  /// Read up to `n` bytes into `dst`: the count read, 0 at the end, or -1.
  ssize_t read(char* dst, std::size_t n) {
    if (positional) n = static_cast<std::size_t>(std::min<std::uint64_t>(n, end - pos));
    if (n == 0) return 0;
    for (;;) {
      const ssize_t got = positional
                              ? ::pread(fd, dst, n, static_cast<off_t>(pos))
                              : ::read(fd, dst, n);
      if (got < 0 && errno == EINTR) continue;
      if (got > 0) pos += static_cast<std::uint64_t>(got);
      return got;
    }
  }
};

/// Call `on_line(begin, end)` for every line of `src` (without its '\n'), in
/// order, reading through `buf`: the partial last line of a read is moved to
/// the front and completed by the next read. Stops after a line for which
/// `on_line` returns false. Returns false on a read error.
template <class OnLine>
bool for_each_line(Source src, std::vector<char>& buf, OnLine&& on_line) {
  std::size_t carry = 0;  // bytes of an unfinished line at buf[0..carry)
  for (;;) {
    if (carry == buf.size()) buf.resize(2 * buf.size());
    const ssize_t got = src.read(buf.data() + carry, buf.size() - carry);
    if (got < 0) return false;
    if (got == 0) {
      if (carry > 0) on_line(buf.data(), buf.data() + carry);  // no final '\n'
      return true;
    }
    const char* line = buf.data();
    const char* const end = buf.data() + carry + static_cast<std::size_t>(got);
    while (const void* nl = std::memchr(line, '\n', static_cast<std::size_t>(
               end - line))) {
      const char* const eol = static_cast<const char*>(nl);
      if (!on_line(line, eol)) return true;
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

/// Where the edge on line [s, end) starts, or nullptr for a blank line or a
/// comment.
const char* edge_begin(const char* s, const char* end) {
  s = skip_space(s, end);
  return s == end || is_comment(*s) ? nullptr : s;
}

/// Parse the vertex id token at `s` into `id`, advancing `s` past it.
/// Returns what is wrong with the token, or nullptr.
const char* parse_id(const char*& s, const char* end, VertexId& id) {
  std::uint64_t value = 0;
  const auto [next, ec] = std::from_chars(s, end, value);  // rejects '-'
  if (ec == std::errc::invalid_argument || !at_token_end(next, end))
    return "expected 'u v [w]'";
  if (ec == std::errc::result_out_of_range || value >= kInvalidVertex)
    return "vertex id out of range";
  s = next;
  id = static_cast<VertexId>(value);
  return nullptr;
}

/// Parse the edge that starts at `s` (an edge_begin result) into `e`.
/// Returns what is wrong with the line, or nullptr.
const char* parse_edge(const char* s, const char* end, Edge& e) {
  if (const char* bad = parse_id(s, end, e.u)) return bad;
  s = skip_space(s, end);
  if (const char* bad = parse_id(s, end, e.v)) return bad;
  s = skip_space(s, end);
  e.w = 1.0;  // optional weight; tokens after it are ignored
  if (s != end && !is_comment(*s)) {
    const auto [next, ec] = std::from_chars(s, end, e.w);
    if (ec == std::errc::invalid_argument || !at_token_end(next, end))
      return "weight is not a number";
    if (ec == std::errc::result_out_of_range) return "weight out of range";
  }
  if (!std::isfinite(e.w)) return "non-finite weight";
  if (e.w <= 0) return "non-positive weight";
  return nullptr;
}

/// One slot's piece of the input and what its passes found there.
struct Slice {
  Source source;
  std::vector<char> buf;
  std::size_t lines = 0;  ///< lines in the piece
  std::size_t edges = 0;  ///< edge lines in the piece (count pass)
  /// Parse pass: edges parsed, and the piece-local line of the first
  /// malformed line (0 if none) with what is wrong with it.
  std::size_t parsed = 0;
  std::size_t error_line = 0;
  const char* error = nullptr;
  bool read_failed = false;
};

/// Count pass: the lines of the piece and the ones that hold an edge.
void count_edges(Slice& s) {
  s.read_failed = !for_each_line(s.source, s.buf, [&](const char* b, const char* e) {
    ++s.lines;
    if (edge_begin(b, e)) ++s.edges;
    return true;
  });
}

/// Parse pass: hand the piece's edges to `emit` in order, up to the first
/// malformed line.
template <class Emit>
void parse_edges(Slice& s, Emit&& emit) {
  s.lines = 0;
  s.read_failed = !for_each_line(s.source, s.buf, [&](const char* b, const char* e) {
    ++s.lines;
    const char* const begin = edge_begin(b, e);
    if (!begin) return true;
    Edge edge;
    s.error = parse_edge(begin, e, edge);
    if (s.error) {
      s.error_line = s.lines;
      return false;
    }
    emit(edge);
    ++s.parsed;
    return true;
  });
}

/// Throw the first failure in input order: a read error, or the first
/// malformed line with its line number in the whole file.
void throw_first_error(const std::vector<Slice>& slices, const std::string& path) {
  std::size_t lines_before = 0;
  for (const Slice& s : slices) {
    if (s.read_failed) throw std::runtime_error("read failed: " + path);
    if (s.error) parse_error(path, lines_before + s.error_line, s.error);
    lines_before += s.lines;
  }
}

/// Start of the first line of the file that begins at byte `at` or later
/// (`size` if none does).
std::uint64_t line_start_at(int fd, std::uint64_t at, std::uint64_t size,
                            const std::string& path) {
  if (at == 0) return 0;
  char buf[4096];
  Source src{fd, true, at - 1, size};  // a line begins after a '\n'
  for (;;) {
    const std::uint64_t base = src.pos;
    const ssize_t got = src.read(buf, sizeof buf);
    if (got < 0) throw std::runtime_error("read failed: " + path);
    if (got == 0) return size;
    if (const void* nl = std::memchr(buf, '\n', static_cast<std::size_t>(got)))
      return base + static_cast<std::uint64_t>(static_cast<const char*>(nl) - buf) + 1;
  }
}
}  // namespace

EdgeList read_edge_list(const std::string& path) {
  return detail::read_edge_list(path, 0);
}

namespace detail {

EdgeList read_edge_list(const std::string& path, int chunks) {
  const Fd fd(path);
  struct stat st {};
  if (fd.get() < 0 || ::fstat(fd.get(), &st) != 0)
    throw std::runtime_error("cannot open edge list: " + path);

  // A stream can be read only once: one piece, parsed as it arrives.
  if (!S_ISREG(st.st_mode)) {
    std::vector<Slice> slices(1);
    slices[0].source = {fd.get(), false, 0, 0};
    slices[0].buf.resize(kReadBytes);
    EdgeList edges;
    parse_edges(slices[0], [&](const Edge& e) { edges.push_back(e); });
    throw_first_error(slices, path);
    return edges;
  }

  // A regular file is cut into byte ranges that end on newlines. A count
  // pass sizes the edge list exactly and gives each piece its first edge
  // slot and first line number; the parse pass then fills each piece's
  // slice of the list. Pieces are merged in slot order, so the result is the
  // serial one for any piece count.
  const auto size = static_cast<std::uint64_t>(st.st_size);
  const int slots = chunks > 0 ? chunks : util::slots_for(size, kMinSlotBytes);
  const auto t = static_cast<std::uint64_t>(slots);
  std::vector<Slice> slices(static_cast<std::size_t>(slots));
  std::uint64_t begin = 0;
  for (std::uint64_t k = 0; k < t; ++k) {
    const std::uint64_t end =
        k + 1 == t ? size
                   : std::max(begin, line_start_at(fd.get(), size * (k + 1) / t,
                                                   size, path));
    slices[k].source = {fd.get(), true, begin, end};
    slices[k].buf.resize(kReadBytes);
    begin = end;
  }

  util::ThreadPool pool(slots);
  pool.run_slots([&](int k) { count_edges(slices[static_cast<std::size_t>(k)]); });
  throw_first_error(slices, path);
  std::vector<std::size_t> first(slices.size() + 1, 0);
  for (std::size_t k = 0; k < slices.size(); ++k)
    first[k + 1] = first[k] + slices[k].edges;

  EdgeList edges(first.back());
  pool.run_slots([&](int k) {
    Slice& s = slices[static_cast<std::size_t>(k)];
    Edge* const out = edges.data() + first[static_cast<std::size_t>(k)];
    const std::size_t room = s.edges;
    parse_edges(s, [&](const Edge& e) {
      if (s.parsed < room) out[s.parsed] = e;
    });
  });
  throw_first_error(slices, path);
  for (const Slice& s : slices)
    if (s.parsed != s.edges)
      throw std::runtime_error(path + ": file changed while it was read");
  return edges;
}

}  // namespace detail

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
