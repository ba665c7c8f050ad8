// dlint — determinism & concurrency lint for the dinfomap tree (DESIGN.md §11).
//
// A single-binary, token/regex-level checker for the nondeterminism and
// locking mistakes PRs 1–4 each had to hunt down by hand. No libclang: every
// rule works on comment- and string-stripped source text, so it runs in
// milliseconds over the whole tree and gates CI (ci/check.sh, `ctest -L lint`).
//
// Rules (each named, each suppressible per-line):
//   unordered-iter    range-for / iterator loop over std::unordered_{map,set}
//                     in order-sensitive dirs (src/core, src/comm,
//                     src/quality). Hash order is stable per binary but not
//                     across standard libraries; anything it feeds — FP
//                     reductions, message layouts, label assignment — silently
//                     breaks the bit-reproducibility contract. Fix with
//                     util::sorted_keys / util::sorted_elems, or justify.
//                     A .cpp also inherits the unordered names of its paired
//                     headers (same stem, or declaring a class whose members
//                     the .cpp defines), so loops over header-declared
//                     members are caught too.
//                     Note — shared-round-counter: the same hidden-coupling
//                     bug also hides in *shared counters*: keying a per-pair
//                     decision on a global round index (e.g. the old
//                     `round_index_ & 1` tiebreak in the min-label guard)
//                     silently couples the decision to how many rounds every
//                     OTHER vertex has run, which breaks as soon as an engine
//                     advances the counter differently (the async engine's
//                     epochs vs the sync engine's rounds). Prefer verdicts
//                     that are pure functions of the entities being compared
//                     (see DistRank::min_label_yields). No automated rule
//                     fires on this — counters are indistinguishable from
//                     legitimate state at token level — so it rides here as a
//                     review checklist item for order-sensitive dirs.
//   raw-rng           rand()/srand()/std::random_device/std::mt19937 outside
//                     src/util/random.* — all randomness must flow from the
//                     seeded util::Xoshiro256 / derive_seed plumbing.
//   wall-clock        time()/std::chrono::system_clock outside src/util/timer.hpp
//                     and src/obs — wall time in algorithm code is a hidden
//                     input; steady_clock via util::Timer is fine.
//   raw-mutex-lock    manual .lock()/.unlock() member calls — use a scoped
//                     guard (util::MutexLock, std::lock_guard); a throw
//                     between the pair leaks the lock.
//   float-accum-order `+=` inside a loop iterating an unordered container
//                     (any dir) — the classic hash-order FP reduction.
//   sleep-sync        sleep_for/sleep_until outside fault-injection stalls
//                     and timer tests — a sleep standing in for
//                     synchronization hides a race behind timing.
//   lock-order        whole-scan pass: every scoped-guard / DI_ACQUIRE
//                     acquisition feeds a global held->acquired graph; a
//                     cycle (including an unsanctioned relock) fails the
//                     scan naming every order-reversing site. Pair guards
//                     that enforce an internal total order carry a
//                     `dlint:ordered-pair(LockType)` marker on their class.
//   unknown-rule      a dlint:allow() marker naming a rule that does not
//                     exist — a typo'd allow would otherwise suppress
//                     nothing and rot silently.
//
// Suppression: `// dlint:allow(<rule>[,<rule>...]): <why>` on the flagged
// line, or in a comment block immediately above it (blank lines between the
// block and the code do not break the attachment). The "why" is mandatory by
// convention (reviewed, not parsed).
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  bool json = false;
  bool list_rules = false;
  std::string root;
  std::vector<std::string> order_dirs = {"src/core", "src/comm", "src/quality"};
  std::vector<std::string> paths;
};

const char* kRuleCatalog[][2] = {
    {"unordered-iter",
     "hash-order iteration over std::unordered_{map,set} in order-sensitive "
     "dirs"},
    {"raw-rng", "raw RNG outside src/util/random.*"},
    {"wall-clock", "wall-clock time outside src/util/timer.hpp and src/obs"},
    {"raw-mutex-lock", "manual .lock()/.unlock() instead of a scoped guard"},
    {"float-accum-order", "`+=` accumulation inside an unordered-container loop"},
    {"sleep-sync",
     "sleep_for/sleep_until as a synchronization tool; real code waits on a "
     "cv/future — sleeps belong only in fault-injection stalls and timing "
     "tests"},
    {"lock-order",
     "global lock-order graph (scoped guards + DI_ACQUIRE sites) has a cycle "
     "or an unsanctioned same-lock reacquisition"},
    {"unknown-rule", "a dlint:allow() marker names a rule that does not exist"},
};

bool known_rule(const std::string& name) {
  for (const auto& r : kRuleCatalog)
    if (name == r[0]) return true;
  return false;
}

std::string normalize(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool path_contains_dir(const std::string& path, const std::string& dir) {
  const std::string needle = dir.back() == '/' ? dir : dir + "/";
  if (path.find("/" + needle) != std::string::npos) return true;
  return path.rfind(needle, 0) == 0;  // relative path starting with the dir
}

/// Length of the raw-string introducer at `in[i]` — `R"`, `u8R"`, `uR"`,
/// `UR"`, `LR"` — or 0 when `i` does not start one. The prefix must begin at
/// an identifier boundary: `FooR"` is an identifier followed by a plain
/// string, not a raw literal.
std::size_t raw_intro_len(const std::string& in, std::size_t i) {
  static const char* kPrefixes[] = {"u8R\"", "uR\"", "UR\"", "LR\"", "R\""};
  if (i > 0 && (std::isalnum(static_cast<unsigned char>(in[i - 1])) ||
                in[i - 1] == '_'))
    return 0;
  for (const char* p : kPrefixes) {
    const std::size_t n = std::char_traits<char>::length(p);
    if (in.compare(i, n, p) == 0) return n;
  }
  return 0;
}

/// Whether a physical line ends in a backslash splice (an odd run of
/// trailing backslashes), which continues the current lexical element —
/// line comment or string literal — onto the next line.
bool ends_with_splice(const std::string& in) {
  std::size_t n = 0;
  for (auto it = in.rbegin(); it != in.rend() && *it == '\\'; ++it) ++n;
  return (n % 2) == 1;
}

/// Blank out comments, string literals, and char literals, preserving line
/// structure (every stripped char becomes a space). Rules then cannot fire on
/// text inside comments or strings; allow-markers are read from raw lines.
std::vector<std::string> strip_source(const std::vector<std::string>& lines) {
  std::vector<std::string> out(lines.size());
  enum class State {
    kCode, kLineComment, kBlockComment, kString, kChar, kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& in = lines[li];
    std::string& res = out[li];
    res.assign(in.size(), ' ');
    // A `// comment \` splice carried this line into the comment.
    if (state == State::kLineComment)
      state = ends_with_splice(in) ? State::kLineComment : State::kCode;
    else
      for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        switch (state) {
          case State::kCode: {
            const std::size_t raw_n = raw_intro_len(in, i);
            if (c == '/' && i + 1 < in.size() && in[i + 1] == '/') {
              if (ends_with_splice(in)) state = State::kLineComment;
              i = in.size();  // rest of line is a comment
            } else if (c == '/' && i + 1 < in.size() && in[i + 1] == '*') {
              state = State::kBlockComment;
              ++i;
            } else if (raw_n != 0) {
              const auto paren = in.find('(', i + raw_n);
              if (paren != std::string::npos) {
                raw_delim =
                    ")" + in.substr(i + raw_n, paren - (i + raw_n)) + "\"";
                state = State::kRawString;
                res[i] = in[i];  // keep the prefix char so tokens stay intact
                i = paren;
              } else {
                res[i] = c;  // malformed; treat as code
              }
            } else if (c == '"') {
              state = State::kString;
            } else if (c == '\'') {
              state = State::kChar;
            } else {
              res[i] = c;
            }
            break;
          }
          case State::kLineComment:
            i = in.size();
            break;
          case State::kBlockComment:
            if (c == '*' && i + 1 < in.size() && in[i + 1] == '/') {
              state = State::kCode;
              ++i;
            }
            break;
          case State::kString:
            if (c == '\\') {
              ++i;
            } else if (c == '"') {
              state = State::kCode;
            }
            break;
          case State::kChar:
            if (c == '\\') {
              ++i;
            } else if (c == '\'') {
              state = State::kCode;
            }
            break;
          case State::kRawString: {
            const auto end = in.find(raw_delim, i);
            if (end != std::string::npos) {
              i = end + raw_delim.size() - 1;
              state = State::kCode;
            } else {
              i = in.size();
            }
            break;
          }
        }
      }
    // Line-based states end at the newline unless a backslash splice
    // continues them (`"abc \` is a multi-line string literal).
    if (state == State::kString || state == State::kChar) {
      if (!ends_with_splice(in)) state = State::kCode;
    }
  }
  return out;
}

bool is_blank(const std::string& s) {
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isspace(c); });
}

/// Per-line allowed rules: a `dlint:allow(rule[, rule...])` marker suppresses
/// findings on its own line; markers on pure-comment lines roll forward onto
/// the next line that carries code (blank lines in between do not break the
/// attachment). A marker naming a rule dlint does not have is itself a
/// finding — a typo'd allow would otherwise silently suppress nothing.
std::vector<std::vector<std::string>> collect_allows(
    const std::string& file, const std::vector<std::string>& raw,
    const std::vector<std::string>& code, std::vector<Finding>& findings) {
  static const std::regex allow_re(
      R"(dlint:allow\(([A-Za-z-]+(?:\s*,\s*[A-Za-z-]+)*)\))");
  std::vector<std::vector<std::string>> allows(raw.size());
  std::vector<std::string> pending;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::vector<std::string> here;
    for (std::sregex_iterator it(raw[i].begin(), raw[i].end(), allow_re), end;
         it != end; ++it) {
      std::stringstream list((*it)[1]);
      for (std::string rule; std::getline(list, rule, ',');) {
        rule.erase(std::remove_if(rule.begin(), rule.end(),
                                  [](unsigned char c) {
                                    return std::isspace(c) != 0;
                                  }),
                   rule.end());
        if (rule.empty()) continue;
        if (!known_rule(rule)) {
          findings.push_back(
              {file, i + 1, "unknown-rule",
               "dlint:allow(" + rule +
                   ") names a rule dlint does not have; see --list-rules"});
          continue;
        }
        here.push_back(rule);
      }
    }
    if (is_blank(code[i])) {
      // Comment-only (or empty) line: markers wait for the next code line.
      pending.insert(pending.end(), here.begin(), here.end());
    } else {
      allows[i] = std::move(pending);
      pending.clear();
      allows[i].insert(allows[i].end(), here.begin(), here.end());
    }
  }
  return allows;
}

bool allowed(const std::vector<std::vector<std::string>>& allows,
             std::size_t line_idx, const std::string& rule) {
  if (line_idx >= allows.size()) return false;
  const auto& v = allows[line_idx];
  return std::find(v.begin(), v.end(), rule) != v.end();
}

/// Names declared as std::unordered_{map,set,...} anywhere in the file.
/// Scope-insensitive on purpose: a false positive costs one allow-comment, a
/// false negative costs a nondeterminism bug.
std::vector<std::string> unordered_names(const std::vector<std::string>& code) {
  std::vector<std::string> names;
  // Join so declarations spanning lines still parse.
  std::string all;
  for (const auto& l : code) {
    all += l;
    all += '\n';
  }
  static const std::string kTag = "unordered_";
  for (std::size_t pos = all.find(kTag); pos != std::string::npos;
       pos = all.find(kTag, pos + kTag.size())) {
    std::size_t p = pos + kTag.size();
    // Accept map/set/multimap/multiset.
    const char* kinds[] = {"multimap", "multiset", "map", "set"};
    bool matched = false;
    for (const char* k : kinds) {
      const std::size_t n = std::string(k).size();
      if (all.compare(p, n, k) == 0) {
        p += n;
        matched = true;
        break;
      }
    }
    if (!matched) continue;
    while (p < all.size() && std::isspace(static_cast<unsigned char>(all[p])))
      ++p;
    if (p >= all.size() || all[p] != '<') continue;
    int depth = 0;
    while (p < all.size()) {
      if (all[p] == '<') ++depth;
      else if (all[p] == '>') {
        --depth;
        if (depth == 0) break;
      }
      ++p;
    }
    if (p >= all.size()) continue;
    ++p;  // past closing '>'
    while (p < all.size() &&
           (std::isspace(static_cast<unsigned char>(all[p])) || all[p] == '&' ||
            all[p] == '*'))
      ++p;
    std::size_t q = p;
    while (q < all.size() && (std::isalnum(static_cast<unsigned char>(all[q])) ||
                              all[q] == '_'))
      ++q;
    if (q > p) {
      std::string name = all.substr(p, q - p);
      if (name != "const" && name != "return" &&
          std::find(names.begin(), names.end(), name) == names.end())
        names.push_back(name);
    }
  }
  return names;
}

/// Final identifier component of a range-for's iterable expression, or ""
/// when the expression is a call / index / temporary we do not track.
std::string iterable_name(std::string expr) {
  while (!expr.empty() &&
         std::isspace(static_cast<unsigned char>(expr.back())))
    expr.pop_back();
  if (expr.empty()) return "";
  const char last = expr.back();
  if (last == ')' || last == ']' || last == '>') return "";  // call/index/temp
  std::size_t q = expr.size();
  while (q > 0 && (std::isalnum(static_cast<unsigned char>(expr[q - 1])) ||
                   expr[q - 1] == '_'))
    --q;
  return expr.substr(q);
}

/// [first, last] line range of the statement/block controlled by a `for`
/// whose header closes on `header_end`. Used by float-accum-order.
std::pair<std::size_t, std::size_t> loop_body_range(
    const std::vector<std::string>& code, std::size_t header_end,
    std::size_t close_pos) {
  int brace = 0;
  bool seen_brace = false;
  for (std::size_t li = header_end; li < code.size(); ++li) {
    const std::string& l = code[li];
    for (std::size_t i = li == header_end ? close_pos : 0; i < l.size(); ++i) {
      if (l[i] == ';' && !seen_brace && brace == 0 && i > close_pos)
        return {header_end, li};  // single-statement body
      if (l[i] == '{') {
        ++brace;
        seen_brace = true;
      } else if (l[i] == '}') {
        --brace;
        if (seen_brace && brace == 0) return {header_end, li};
      }
    }
    if (!seen_brace && li > header_end && !is_blank(l)) {
      // Single statement on the following line(s): run to its ';'.
      for (std::size_t lj = li; lj < code.size(); ++lj)
        if (code[lj].find(';') != std::string::npos) return {header_end, lj};
      return {header_end, li};
    }
  }
  return {header_end, code.size() - 1};
}

struct RangeFor {
  std::size_t header_line;  ///< line the `for (` starts on
  std::size_t close_line;   ///< line its `)` closes on
  std::size_t close_pos;    ///< column of that `)`
  std::string iterable;     ///< trailing identifier of the range expression
};

/// All range-fors (and their iterables) in the file; headers may span lines.
std::vector<RangeFor> find_range_fors(const std::vector<std::string>& code) {
  std::vector<RangeFor> out;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& l = code[li];
    for (std::size_t pos = 0; (pos = l.find("for", pos)) != std::string::npos;
         pos += 3) {
      const bool word_start =
          pos == 0 || (!std::isalnum(static_cast<unsigned char>(l[pos - 1])) &&
                       l[pos - 1] != '_');
      const std::size_t after = pos + 3;
      const bool word_end =
          after >= l.size() ||
          (!std::isalnum(static_cast<unsigned char>(l[after])) &&
           l[after] != '_');
      if (!word_start || !word_end) continue;
      std::size_t p = after;
      std::size_t pl = li;
      auto cur = [&]() -> const std::string& { return code[pl]; };
      auto advance = [&]() -> bool {
        ++p;
        while (pl < code.size() && p >= cur().size()) {
          ++pl;
          p = 0;
          if (pl - li > 4) return false;  // header spanning >5 lines: give up
        }
        return pl < code.size();
      };
      while (pl < code.size() && (p >= cur().size() ||
             std::isspace(static_cast<unsigned char>(cur()[p])))) {
        if (p < cur().size() &&
            !std::isspace(static_cast<unsigned char>(cur()[p])))
          break;
        if (!advance()) break;
      }
      if (pl >= code.size() || p >= cur().size() || cur()[p] != '(') continue;
      // Collect the parenthesized header.
      int depth = 0;
      std::string header;
      std::size_t close_line = pl, close_pos = p;
      bool closed = false;
      while (pl < code.size()) {
        const char c = cur()[p];
        if (c == '(') ++depth;
        if (c == ')') {
          --depth;
          if (depth == 0) {
            close_line = pl;
            close_pos = p;
            closed = true;
            break;
          }
        }
        header += c;
        if (!advance()) break;
      }
      if (!closed) continue;
      header += '\n';
      // Range-for: a top-level ':' not part of '::'.
      std::size_t colon = std::string::npos;
      int d2 = 0;
      for (std::size_t i = 1; i + 1 < header.size(); ++i) {
        const char c = header[i];
        if (c == '(' || c == '<' || c == '[') ++d2;
        if (c == ')' || c == '>' || c == ']') --d2;
        if (c == ':' && d2 == 0 && header[i - 1] != ':' &&
            header[i + 1] != ':') {
          colon = i;
          break;
        }
      }
      if (colon == std::string::npos) continue;
      out.push_back({li, close_line, close_pos,
                     iterable_name(header.substr(colon + 1))});
    }
  }
  return out;
}

/// Read a file as lines (CRLF-tolerant) and produce its stripped twin.
bool load_source(const std::string& path, std::vector<std::string>& raw,
                 std::vector<std::string>& code) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  raw.clear();
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    raw.push_back(line);
  }
  code = strip_source(raw);
  return true;
}

/// Add to `names` the unordered-container names a .cpp file inherits from
/// its paired headers. Members are declared in a header but iterated in the
/// .cpp, so a per-file scan misses them. A quoted include is paired when it
/// shares the file's stem or declares a class/struct the file defines
/// members of (`Name::`). Includes resolve against the file's directory and
/// then each ancestor (covering `#include "core/x.hpp"` from src/core/y.cpp).
void add_paired_header_names(const std::string& path,
                             const std::vector<std::string>& raw,
                             const std::vector<std::string>& code,
                             std::vector<std::string>& names) {
  const fs::path file(path);
  const std::string ext = file.extension().string();
  if (ext != ".cpp" && ext != ".cc") return;
  std::string all;
  for (const auto& l : code) {
    all += l;
    all += '\n';
  }
  static const std::regex include_re(R"re(^\s*#\s*include\s*"([^"]+)")re");
  static const std::regex decl_re(R"(\b(?:class|struct)\s+(\w+))");
  for (const auto& line : raw) {
    std::smatch m;
    if (!std::regex_search(line, m, include_re)) continue;
    fs::path header;
    for (fs::path dir = file.parent_path(); !dir.empty(); dir = dir.parent_path()) {
      std::error_code ec;
      if (fs::is_regular_file(dir / m[1].str(), ec)) {
        header = dir / m[1].str();
        break;
      }
      if (dir == dir.parent_path()) break;
    }
    std::vector<std::string> hraw, hcode;
    if (header.empty() || !load_source(header.string(), hraw, hcode)) continue;
    bool paired = header.stem() == file.stem();
    for (std::size_t i = 0; i < hcode.size() && !paired; ++i) {
      for (std::sregex_iterator it(hcode[i].begin(), hcode[i].end(), decl_re), end;
           it != end && !paired; ++it) {
        const std::string qual = (*it)[1].str() + "::";
        for (std::size_t pos = all.find(qual); pos != std::string::npos && !paired;
             pos = all.find(qual, pos + 1))
          paired = pos == 0 || !(std::isalnum(static_cast<unsigned char>(all[pos - 1])) ||
                                 all[pos - 1] == '_');
      }
    }
    if (!paired) continue;
    for (const std::string& n : unordered_names(hcode))
      if (std::find(names.begin(), names.end(), n) == names.end())
        names.push_back(n);
  }
}

void scan_file(const std::string& display_path, const Options& opt,
               std::vector<Finding>& findings, std::size_t& io_errors) {
  std::vector<std::string> raw, code;
  if (!load_source(display_path, raw, code)) {
    std::cerr << "dlint: cannot read " << display_path << "\n";
    ++io_errors;
    return;
  }
  const auto allows = collect_allows(display_path, raw, code, findings);
  const std::string npath = normalize(display_path);

  auto report = [&](std::size_t line_idx, const char* rule,
                    const std::string& message) {
    if (allowed(allows, line_idx, rule)) return;
    findings.push_back({display_path, line_idx + 1, rule, message});
  };

  // ---- raw-rng ----------------------------------------------------------
  if (npath.find("src/util/random.") == std::string::npos) {
    static const std::regex rng_re(
        R"(\b(rand|srand|rand_r|drand48)\s*\(|std::random_device|std::mt19937|std::minstd_rand|std::default_random_engine)");
    for (std::size_t i = 0; i < code.size(); ++i)
      if (std::regex_search(code[i], rng_re))
        report(i, "raw-rng",
               "raw RNG; all randomness must come from util::Xoshiro256 / "
               "util::derive_seed (src/util/random.*)");
  }

  // ---- wall-clock -------------------------------------------------------
  if (npath.find("src/util/timer.hpp") == std::string::npos &&
      npath.find("src/obs/") == std::string::npos) {
    static const std::regex clock_re(
        R"(\btime\s*\(|std::chrono::system_clock|\bgettimeofday\s*\(|\blocaltime\s*\(|\bgmtime\s*\()");
    for (std::size_t i = 0; i < code.size(); ++i)
      if (std::regex_search(code[i], clock_re))
        report(i, "wall-clock",
               "wall-clock time is a hidden input; use util::Timer "
               "(steady_clock) or keep it in src/obs");
  }

  // ---- raw-mutex-lock ---------------------------------------------------
  {
    static const std::regex lock_re(R"((\.|->)\s*(lock|unlock)\s*\(\s*\))");
    for (std::size_t i = 0; i < code.size(); ++i)
      if (std::regex_search(code[i], lock_re))
        report(i, "raw-mutex-lock",
               "manual lock()/unlock(); use a scoped guard "
               "(util::MutexLock / std::lock_guard) — a throw between the "
               "pair leaks the lock");
  }

  // ---- sleep-sync -------------------------------------------------------
  // A sleep that stands in for synchronization hides a race behind timing:
  // it works on the dev box and flakes under load. Real code waits on a
  // condition variable, future, or poll-with-deadline; the only sanctioned
  // sleeps are fault-injection stalls (deliberately wasting time IS the
  // feature) and timer tests that need wall time to pass.
  {
    static const std::regex sleep_re(
        R"(std::this_thread::sleep_(for|until)\b|\busleep\s*\(|\bnanosleep\s*\()");
    for (std::size_t i = 0; i < code.size(); ++i)
      if (std::regex_search(code[i], sleep_re))
        report(i, "sleep-sync",
               "sleep as a synchronization tool; wait on a cv/future or "
               "poll with a deadline — if this is a fault-injection stall "
               "or a timer test, justify with dlint:allow(sleep-sync)");
  }

  // ---- unordered-iter & float-accum-order -------------------------------
  std::vector<std::string> names = unordered_names(code);
  add_paired_header_names(display_path, raw, code, names);
  if (!names.empty()) {
    const bool order_sensitive =
        std::any_of(opt.order_dirs.begin(), opt.order_dirs.end(),
                    [&](const std::string& d) {
                      return path_contains_dir(npath, d);
                    });
    const auto tracked = [&](const std::string& n) {
      return std::find(names.begin(), names.end(), n) != names.end();
    };

    for (const RangeFor& rf : find_range_fors(code)) {
      if (rf.iterable.empty() || !tracked(rf.iterable)) continue;
      if (order_sensitive)
        report(rf.header_line, "unordered-iter",
               "hash-order iteration over unordered container '" +
                   rf.iterable +
                   "'; use util::sorted_keys/sorted_elems or justify with "
                   "dlint:allow(unordered-iter)");
      const auto [first, last] =
          loop_body_range(code, rf.close_line, rf.close_pos);
      for (std::size_t li = first; li <= last && li < code.size(); ++li) {
        const std::string& l = code[li];
        for (std::size_t p = 0; (p = l.find("+=", p)) != std::string::npos;
             p += 2) {
          // Skip ++ and compound tokens that merely contain "+=".
          if (p > 0 && (l[p - 1] == '+' || l[p - 1] == '<' || l[p - 1] == '>'))
            continue;
          report(li, "float-accum-order",
                 "accumulation inside a loop over unordered container '" +
                     rf.iterable +
                     "' runs in hash order; sort the keys first");
          break;
        }
      }
    }

    // Iterator-style loops: for (auto it = m.begin(); ...)
    if (order_sensitive) {
      for (std::size_t i = 0; i < code.size(); ++i) {
        const std::string& l = code[i];
        const auto fpos = l.find("for");
        if (fpos == std::string::npos) continue;
        static const std::regex it_re(R"((\w+)\s*\.\s*c?begin\s*\(\s*\))");
        std::smatch m;
        std::string tail = l.substr(fpos);
        if (std::regex_search(tail, m, it_re) && tracked(m[1]))
          report(i, "unordered-iter",
                 "hash-order iterator loop over unordered container '" +
                     std::string(m[1]) + "'");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// lock-order pass (annotation-aware, whole-scan)
// ---------------------------------------------------------------------------
//
// Builds one global held -> acquired graph from every scoped-guard
// construction (util::MutexLock, std::lock_guard/unique_lock/scoped_lock,
// plus any DI_SCOPED_CAPABILITY type or function carrying DI_ACQUIRE) and
// fails on cycles — the static complement of dcheck's runtime lock-order
// detector (DESIGN.md §16). Token-level, so the graph only sees lexical
// nesting within one function plus one interprocedural hop through
// DI_ACQUIRE-annotated methods; that is exactly the set of orderings a
// reviewer can check locally, which is the point of the rule.
//
// Lock identity: members (trailing '_') are qualified by their class
// (class-decl context in headers, `Class::method` definitions in .cpp
// files); everything else is file-qualified, so same-named locals in
// different files never merge into a false cycle.
//
// Sanctioned exception: a guard class whose declaration carries
// `dlint:ordered-pair(LockType)` (e.g. core::ModulePairGuard) promises an
// internal total order over same-type locks; its acquisitions are exempt.
// A single site can also be excluded with dlint:allow(lock-order).

struct LockOrderEdge {
  std::string file;
  std::size_t line = 0;
  std::string held, acquired;
};

struct LockOrderGraph {
  std::set<std::string> guard_types{"MutexLock", "lock_guard", "unique_lock",
                                    "scoped_lock", "shared_lock"};
  std::set<std::string> sanctioned;  ///< guard types with an ordered-pair marker
  /// DI_ACQUIRE-annotated member functions: name -> fully qualified locks.
  std::map<std::string, std::vector<std::string>> acquire_methods;
  std::map<std::pair<std::string, std::string>, LockOrderEdge> edges;
};

std::string file_stem(const std::string& path) {
  return fs::path(path).filename().string();
}

std::string canon_lock(std::string expr, const std::string& cls,
                       const std::string& stem) {
  std::string s;
  int bracket = 0;
  for (char c : expr) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (c == '[') {
      if (bracket++ == 0) s += "[]";
      continue;
    }
    if (c == ']') {
      if (bracket > 0) --bracket;
      continue;
    }
    if (bracket == 0) s += c;
  }
  while (!s.empty() && (s.front() == '*' || s.front() == '&')) s.erase(0, 1);
  if (s.rfind("this->", 0) == 0) s.erase(0, 6);
  const bool bare = !s.empty() &&
                    std::all_of(s.begin(), s.end(), [](unsigned char c) {
                      return std::isalnum(c) || c == '_';
                    });
  if (bare && s.back() == '_' && !cls.empty()) return cls + "::" + s;
  return stem + "::" + s;
}

/// First balanced `(...)` argument list starting at `line[open]`; empty when
/// the parenthesis does not close on this line (multi-line guard headers are
/// out of scope for a token-level pass).
std::vector<std::string> ctor_args(const std::string& line, std::size_t open) {
  std::vector<std::string> args;
  if (open >= line.size() || (line[open] != '(' && line[open] != '{'))
    return args;
  const char close = line[open] == '(' ? ')' : '}';
  int depth = 0;
  std::string cur;
  for (std::size_t i = open; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '(' || c == '{' || c == '<' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == '>' || c == ']') {
      --depth;
      if (depth == 0 && c == close) {
        if (!is_blank(cur)) args.push_back(cur);
        return args;
      }
    }
    if (depth == 1 && c == ',') {
      args.push_back(cur);
      cur.clear();
    } else if (depth >= 1 && !(depth == 1 && (c == '(' || c == '{'))) {
      cur += c;
    }
  }
  return {};
}

/// Pass 1: guard-type and annotation harvest for one file.
void lock_order_collect(const std::string& file,
                        const std::vector<std::string>& raw,
                        const std::vector<std::string>& code,
                        LockOrderGraph& g) {
  static const std::regex pair_re(R"(dlint:ordered-pair\(([\w:]+)\))");
  static const std::regex scoped_cap_re(
      R"(\b(?:class|struct)\s+DI_SCOPED_CAPABILITY\s+(\w+))");
  static const std::regex class_re(
      R"(\b(?:class|struct)\s+(?:DI_\w+\s+)*(\w+))");
  static const std::regex acquire_re(
      R"(\b(\w+)\s*\(([^()]*)\)\s*(?:const\s*)?DI_ACQUIRE\s*\(\s*([\w]*)\s*\))");
  std::string cls;  // innermost class decl seen so far (declaration order)
  for (std::size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(code[i], m, class_re)) cls = m[1];
    if (std::regex_search(code[i], m, scoped_cap_re)) g.guard_types.insert(m[1]);
    if (std::regex_search(raw[i], m, pair_re)) {
      // The marker sanctions the guard class it documents: the next
      // class/struct declaration within a few lines.
      for (std::size_t j = i; j < code.size() && j < i + 6; ++j) {
        std::smatch cm;
        if (std::regex_search(code[j], cm, class_re)) {
          g.sanctioned.insert(cm[1]);
          g.guard_types.insert(cm[1]);
          break;
        }
      }
    }
    if (std::regex_search(code[i], m, acquire_re)) {
      const std::string fn = m[1], params = m[2], lock = m[3];
      if (lock.empty()) continue;  // DI_ACQUIRE() on a guard primitive
      const std::regex param_word("\\b" + lock + "\\b");
      if (std::regex_search(params, param_word)) {
        // Acquires its own parameter: an RAII guard shape (e.g. MutexLock).
        g.guard_types.insert(fn);
      } else {
        // Member function acquiring a member lock: one interprocedural hop.
        g.acquire_methods[fn].push_back(
            canon_lock(lock, cls, file_stem(file)));
      }
    }
  }
}

/// Pass 2: edge construction for one file.
void lock_order_edges(const std::string& file,
                      const std::vector<std::string>& raw,
                      const std::vector<std::string>& code, LockOrderGraph& g) {
  // collect_allows also validates marker names; scan_file already reported
  // those, so diagnostics from this second parse are dropped.
  std::vector<Finding> ignored;
  const auto allows = collect_allows(file, raw, code, ignored);
  const std::string stem = file_stem(file);

  std::string guard_alt;
  for (const auto& t : g.guard_types)
    guard_alt += (guard_alt.empty() ? "" : "|") + t;
  const std::regex guard_re("\\b(" + guard_alt +
                            ")(?:\\s*<[^;{}()]*>)?\\s+\\w+\\s*([({])");
  static const std::regex class_re(
      R"(\b(?:class|struct)\s+(?:DI_\w+\s+)*(\w+))");
  static const std::regex impl_re(R"(\b([A-Z]\w*)::~?\w+\s*\()");

  struct Acq {
    std::string lock;
    int depth;
  };
  struct ClassCtx {
    std::string name;
    int depth;
  };
  std::vector<Acq> held;
  std::vector<ClassCtx> classes;
  std::string pending_class, impl_class;
  int depth = 0;

  const auto context_class = [&]() -> std::string {
    if (!classes.empty()) return classes.back().name;
    return impl_class;
  };
  const auto add_acquisition = [&](const std::string& lock, std::size_t li) {
    if (allowed(allows, li, "lock-order")) return;
    for (const Acq& h : held) {
      const auto key = std::make_pair(h.lock, lock);
      if (g.edges.count(key) == 0)
        g.edges[key] = {file, li + 1, h.lock, lock};
    }
    held.push_back({lock, depth});
  };

  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& l = code[li];

    // Gather positioned events, then replay them interleaved with braces.
    struct Event {
      std::size_t pos;
      int kind;  // 0 class decl, 1 guard, 2 annotated call
      std::string name;
      std::size_t open = 0;  // guard: position of its '(' / '{'
    };
    std::vector<Event> events;
    for (std::sregex_iterator it(l.begin(), l.end(), class_re), end; it != end;
         ++it)
      events.push_back({static_cast<std::size_t>(it->position(0)), 0,
                        (*it)[1], 0});
    for (std::sregex_iterator it(l.begin(), l.end(), guard_re), end; it != end;
         ++it)
      events.push_back({static_cast<std::size_t>(it->position(0)), 1,
                        (*it)[1],
                        static_cast<std::size_t>(it->position(2))});
    if (!g.acquire_methods.empty()) {
      static const std::regex call_re(R"(\b(\w+)\s*\()");
      for (std::sregex_iterator it(l.begin(), l.end(), call_re), end;
           it != end; ++it)
        if (g.acquire_methods.count((*it)[1]) != 0)
          events.push_back({static_cast<std::size_t>(it->position(0)), 2,
                            (*it)[1], 0});
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.pos < b.pos; });

    std::smatch m;
    if (depth <= 1 && std::regex_search(l, m, impl_re) && held.empty() &&
        classes.empty()) {
      // `Ret Class::method(...)` at namespace level: .cpp member context.
      impl_class = m[1];
    }

    std::size_t next_event = 0;
    for (std::size_t i = 0; i <= l.size(); ++i) {
      while (next_event < events.size() && events[next_event].pos == i) {
        const Event& e = events[next_event++];
        if (e.kind == 0) {
          pending_class = e.name;
        } else if (e.kind == 1 && g.sanctioned.count(e.name) == 0) {
          const std::string cls = context_class();
          const auto args = ctor_args(l, e.open);
          for (std::size_t a = 0; a < args.size(); ++a) {
            // std:: tag arguments (adopt_lock, defer_lock...) are not locks,
            // and std guards only take the lockable first.
            if (a > 0 && (e.name != "scoped_lock" || args[a].find("std::") !=
                                                         std::string::npos))
              continue;
            add_acquisition(canon_lock(args[a], cls, stem), li);
          }
        } else if (e.kind == 2) {
          for (const std::string& lock : g.acquire_methods.at(e.name)) {
            if (allowed(allows, li, "lock-order")) continue;
            for (const Acq& h : held) {
              const auto key = std::make_pair(h.lock, lock);
              if (g.edges.count(key) == 0)
                g.edges[key] = {file, li + 1, h.lock, lock};
            }
          }
        }
      }
      if (i == l.size()) break;
      const char c = l[i];
      if (c == '{') {
        ++depth;
        if (!pending_class.empty()) {
          classes.push_back({pending_class, depth});
          pending_class.clear();
        }
      } else if (c == '}') {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
        while (!classes.empty() && classes.back().depth > depth)
          classes.pop_back();
      } else if (c == ';' || c == ')' || c == '>') {
        pending_class.clear();  // forward decl / template parameter
      }
    }
  }
}

/// Cycle detection + reporting over the merged graph.
void lock_order_report(const LockOrderGraph& g, std::vector<Finding>& findings) {
  // adjacency
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, e] : g.edges) adj[key.first].push_back(key.second);

  const auto reaches = [&](const std::string& from, const std::string& to) {
    std::vector<std::string> stack{from};
    std::set<std::string> seen{from};
    while (!stack.empty()) {
      const std::string cur = stack.back();
      stack.pop_back();
      const auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (const auto& n : it->second) {
        if (n == to) return true;
        if (seen.insert(n).second) stack.push_back(n);
      }
    }
    return false;
  };

  // An edge participates in a cycle iff its head reaches its tail. Group all
  // cycle edges into one finding per weakly-connected cluster so the report
  // names every acquisition site of the inversion at once.
  std::vector<const LockOrderEdge*> cyclic;
  for (const auto& [key, e] : g.edges)
    if (key.first == key.second || reaches(key.second, key.first))
      cyclic.push_back(&e);
  if (cyclic.empty()) return;

  std::ostringstream os;
  os << "lock acquisition order is cyclic; every order-reversing site:";
  for (const LockOrderEdge* e : cyclic)
    os << "\n  " << e->file << ":" << e->line << ": acquired " << e->acquired
       << " while holding " << e->held;
  os << "\n  (a guard class enforcing an internal total order can be "
        "sanctioned with dlint:ordered-pair(LockType))";
  findings.push_back({cyclic.front()->file, cyclic.front()->line, "lock-order",
                      os.str()});
}

void lock_order_pass(const std::vector<std::string>& files,
                     std::vector<Finding>& findings) {
  LockOrderGraph g;
  std::vector<std::pair<std::string,
                        std::pair<std::vector<std::string>,
                                  std::vector<std::string>>>> sources;
  for (const auto& f : files) {
    std::vector<std::string> raw, code;
    // Unreadable files were already reported (and counted) by scan_file.
    if (!load_source(f, raw, code)) continue;
    lock_order_collect(f, raw, code, g);
    sources.push_back({f, {std::move(raw), std::move(code)}});
  }
  for (const auto& [f, rc] : sources)
    lock_order_edges(f, rc.first, rc.second, g);
  lock_order_report(g, findings);
}

void collect_paths(const fs::path& p, std::vector<std::string>& files,
                   std::size_t& io_errors) {
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    std::vector<std::string> batch;
    for (auto it = fs::recursive_directory_iterator(
             p, fs::directory_options::skip_permission_denied, ec);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
          ext == ".cxx")
        batch.push_back(it->path().string());
    }
    std::sort(batch.begin(), batch.end());  // deterministic scan order
    files.insert(files.end(), batch.begin(), batch.end());
  } else if (fs::exists(p, ec)) {
    files.push_back(p.string());
  } else {
    std::cerr << "dlint: no such path: " << p.string() << "\n";
    ++io_errors;
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int usage() {
  std::cerr
      << "usage: dlint [--json] [--root DIR] [--order-dirs a,b,...] "
         "[--list-rules] <file|dir>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (arg == "--root") {
      if (++i >= argc) return usage();
      opt.root = argv[i];
    } else if (arg == "--order-dirs") {
      if (++i >= argc) return usage();
      opt.order_dirs.clear();
      std::stringstream ss(argv[i]);
      for (std::string d; std::getline(ss, d, ',');)
        if (!d.empty()) opt.order_dirs.push_back(normalize(d));
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "dlint: unknown flag " << arg << "\n";
      return usage();
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (opt.list_rules) {
    for (const auto& r : kRuleCatalog)
      std::cout << r[0] << "\t" << r[1] << "\n";
    return 0;
  }
  if (opt.paths.empty()) return usage();

  std::vector<std::string> files;
  std::size_t io_errors = 0;
  for (const auto& p : opt.paths) {
    fs::path fp(p);
    if (!opt.root.empty() && fp.is_relative()) fp = fs::path(opt.root) / fp;
    collect_paths(fp, files, io_errors);
  }

  std::vector<Finding> findings;
  for (const auto& f : files) scan_file(f, opt, findings, io_errors);
  lock_order_pass(files, findings);

  if (opt.json) {
    std::cout << "{\"version\":1,\"files_scanned\":" << files.size()
              << ",\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      std::cout << (i ? "," : "") << "{\"file\":\"" << json_escape(f.file)
                << "\",\"line\":" << f.line << ",\"rule\":\"" << f.rule
                << "\",\"message\":\"" << json_escape(f.message) << "\"}";
    }
    std::cout << "],\"count\":" << findings.size() << "}\n";
  } else {
    for (const Finding& f : findings)
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    std::cerr << "dlint: " << findings.size() << " finding(s), "
              << files.size() << " file(s) scanned\n";
  }
  if (io_errors > 0) return 2;
  return findings.empty() ? 0 : 1;
}
