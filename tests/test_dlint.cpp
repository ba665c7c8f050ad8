// dlint behaves as documented: every rule fires on its must-fire fixture,
// stays silent on the clean ones, respects dlint:allow markers, and emits
// parseable JSON. The binary and fixture paths are injected by CMake
// (DLINT_BIN / DLINT_FIXTURES).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout only; findings go to stdout
};

RunResult run_dlint(const std::string& args) {
  const std::string cmd =
      std::string(DLINT_BIN) + " " + args + " 2>/dev/null";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    r.output.append(buf.data(), n);
  const int status = pclose(pipe);
  // popen runs through /bin/sh; WEXITSTATUS gives the child's exit code.
  r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixtures_args(const std::string& extra = "") {
  return "--root " DLINT_FIXTURES " --order-dirs order_sensitive " + extra +
         " fixtures";
}

std::size_t count_rule(const std::string& out, const std::string& rule) {
  const std::string tag = "[" + rule + "]";
  std::size_t count = 0;
  for (auto pos = out.find(tag); pos != std::string::npos;
       pos = out.find(tag, pos + tag.size()))
    ++count;
  return count;
}

TEST(Dlint, EveryRuleFiresOnItsFixture) {
  const RunResult r = run_dlint(fixtures_args());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_rule(r.output, "unordered-iter"), 1u) << r.output;
  EXPECT_GE(count_rule(r.output, "float-accum-order"), 1u) << r.output;
  EXPECT_GE(count_rule(r.output, "raw-rng"), 1u) << r.output;
  EXPECT_GE(count_rule(r.output, "wall-clock"), 1u) << r.output;
  EXPECT_GE(count_rule(r.output, "raw-mutex-lock"), 1u) << r.output;
  EXPECT_GE(count_rule(r.output, "sleep-sync"), 1u) << r.output;
  EXPECT_GE(count_rule(r.output, "lock-order"), 1u) << r.output;
  EXPECT_GE(count_rule(r.output, "unknown-rule"), 1u) << r.output;
}

TEST(Dlint, FindingsCarryFileAndLine) {
  const RunResult r = run_dlint(fixtures_args());
  // Human format is path:line: [rule] message — clickable in editors.
  EXPECT_NE(r.output.find("raw_rng_fire.cpp:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(": [raw-rng] "), std::string::npos) << r.output;
}

TEST(Dlint, SilentOnCleanFixtures) {
  // Scanning only the must-not-fire fixtures: zero findings, exit 0. This is
  // also the regression test for comment/string stripping — the clean
  // fixtures contain every trigger pattern inside comments and literals.
  const char* clean[] = {
      "fixtures/order_sensitive/unordered_iter_clean.cpp",
      "fixtures/order_sensitive/unordered_iter_allow.cpp",
      "fixtures/float_accum_clean.cpp",
      "fixtures/raw_rng_clean.cpp",
      "fixtures/wall_clock_clean.cpp",
      "fixtures/raw_mutex_clean.cpp",
      "fixtures/sleep_sync_clean.cpp",
      "fixtures/raw_string_prefix_clean.cpp",
      "fixtures/comment_splice_clean.cpp",
      "fixtures/comment_gap_allow_clean.cpp",
      "fixtures/multi_rule_allow_clean.cpp",
      "fixtures/lock_order_clean.cpp",
      "fixtures/lock_order_pair_clean.cpp",
  };
  std::string paths;
  for (const char* f : clean) paths += std::string(" ") + f;
  const RunResult r = run_dlint(
      "--root " DLINT_FIXTURES " --order-dirs order_sensitive" + paths);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "") << r.output;
}

TEST(Dlint, AllowMarkerSuppressesBothPlacements) {
  // unordered_iter_allow.cpp uses both a same-line marker and a
  // comment-block-above marker; raw_mutex_clean.cpp uses a same-line one.
  const RunResult r = run_dlint(
      "--root " DLINT_FIXTURES
      " --order-dirs order_sensitive"
      " fixtures/order_sensitive/unordered_iter_allow.cpp"
      " fixtures/raw_mutex_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Dlint, AllowBlockAboveSurvivesBlankLines) {
  // The marker sits in a comment block separated from its code line by more
  // comment prose and a fully blank line; attachment must roll forward.
  const RunResult r = run_dlint(
      "--root " DLINT_FIXTURES " fixtures/comment_gap_allow_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "") << r.output;
}

TEST(Dlint, MultiRuleAllowSuppressesEveryNamedRule) {
  // One comma-separated allow marker covers a line tripping two rules —
  // in both the block-above and same-line (spaces around the comma) forms.
  const RunResult r = run_dlint(
      "--root " DLINT_FIXTURES " fixtures/multi_rule_allow_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "") << r.output;
}

TEST(Dlint, UnknownRuleNameIsItselfAFinding) {
  // A typo'd allow would silently suppress nothing; dlint must say so.
  const RunResult r =
      run_dlint("--root " DLINT_FIXTURES " fixtures/unknown_rule_fire.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_rule(r.output, "unknown-rule"), 1u) << r.output;
  EXPECT_NE(r.output.find("no-such-rule"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("--list-rules"), std::string::npos) << r.output;
}

TEST(Dlint, CrlfFilesKeepLineNumbersAndAllowMarkers) {
  // CRLF endings must not shift line numbers, break the backslash-splice
  // check, or hide the allow marker: exactly one finding, on line 9.
  const RunResult r =
      run_dlint("--root " DLINT_FIXTURES " fixtures/crlf_fire.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_rule(r.output, "raw-rng"), 1u) << r.output;
  EXPECT_EQ(count_rule(r.output, "sleep-sync"), 0u) << r.output;
  EXPECT_NE(r.output.find("crlf_fire.cpp:9:"), std::string::npos) << r.output;
}

TEST(Dlint, RawStringPrefixesAndCommentSplicesStripClean) {
  // u8R/uR/UR/LR prefixes, custom delimiters, multi-line raw strings, and
  // backslash-spliced comments/strings all hide their trigger patterns.
  const RunResult r = run_dlint("--root " DLINT_FIXTURES
                                " fixtures/raw_string_prefix_clean.cpp"
                                " fixtures/comment_splice_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "") << r.output;
}

TEST(Dlint, LockOrderCycleNamesBothSites) {
  const RunResult r =
      run_dlint("--root " DLINT_FIXTURES " fixtures/lock_order_fire.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_rule(r.output, "lock-order"), 1u) << r.output;
  // One finding, but it must name BOTH order-reversing acquisition sites.
  EXPECT_NE(
      r.output.find(
          "acquired lock_order_fire.cpp::b while holding lock_order_fire.cpp::a"),
      std::string::npos)
      << r.output;
  EXPECT_NE(
      r.output.find(
          "acquired lock_order_fire.cpp::a while holding lock_order_fire.cpp::b"),
      std::string::npos)
      << r.output;
}

TEST(Dlint, LockOrderSanctionedPairGuardIsExempt) {
  // lock_order_pair_clean.cpp acquires the same SpinLock pair in both orders
  // through a guard class carrying dlint:ordered-pair(SpinLock); the
  // promised internal total order makes that legal.
  const RunResult r =
      run_dlint("--root " DLINT_FIXTURES " fixtures/lock_order_pair_clean.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Dlint, OrderDirGatingScopesUnorderedIter) {
  // float_accum_fire.cpp sits outside the order-sensitive dirs: the
  // accumulation rule fires (it applies everywhere) but unordered-iter does
  // not (it is scoped to the dirs where iteration order can reach output).
  const RunResult r =
      run_dlint("--root " DLINT_FIXTURES
                " --order-dirs order_sensitive fixtures/float_accum_fire.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_rule(r.output, "float-accum-order"), 1u) << r.output;
  EXPECT_EQ(count_rule(r.output, "unordered-iter"), 0u) << r.output;
}

TEST(Dlint, UnorderedIterReadsPairedHeader) {
  // The member is declared in paired_tally.hpp and iterated in the .cpp that
  // defines Tally's methods: both rules must fire on the loop, at its line.
  const RunResult r = run_dlint(
      "--root " DLINT_FIXTURES
      " --order-dirs order_sensitive"
      " fixtures/order_sensitive/paired_header_fire.cpp");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(count_rule(r.output, "unordered-iter"), 1u) << r.output;
  EXPECT_EQ(count_rule(r.output, "float-accum-order"), 1u) << r.output;
  EXPECT_NE(r.output.find("paired_header_fire.cpp:8:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'totals_'"), std::string::npos) << r.output;
}

TEST(Dlint, JsonModeParses) {
  const RunResult r = run_dlint("--json " + fixtures_args());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Structural spot-checks without a JSON library: object braces, the three
  // top-level keys, and at least one finding with the expected fields.
  EXPECT_EQ(r.output.rfind("{", 0), 0u) << r.output;
  EXPECT_NE(r.output.find("\"findings\":["), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"files_scanned\":"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"count\":"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"rule\":\"raw-rng\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"line\":"), std::string::npos) << r.output;
  // Balanced braces/brackets — catches truncated or unescaped output.
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < r.output.size(); ++i) {
    const char c = r.output[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
  }
  EXPECT_EQ(depth, 0) << r.output;
}

TEST(Dlint, UnknownPathExitsTwo) {
  const RunResult r = run_dlint("no/such/path.cpp");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Dlint, ListRules) {
  const RunResult r = run_dlint("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"unordered-iter", "raw-rng", "wall-clock", "raw-mutex-lock",
        "float-accum-order", "sleep-sync", "lock-order", "unknown-rule"})
    EXPECT_NE(r.output.find(rule), std::string::npos) << r.output;
}

}  // namespace
