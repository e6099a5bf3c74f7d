// omvlint's own test suite: the determinism-contract checker is asserted
// rule by rule against the fixture corpus under tools/omvlint/fixtures
// (one deliberately-violating file per rule, a suppressed-clean case and
// a malformed-suppression case), plus in-memory sources that pin the
// tokenizer's corner cases (strings, comments, scoping, allowlists).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "tools/omvlint/omvlint.hpp"

namespace {

using omv::lint::Diagnostic;
using omv::lint::LintResult;
using omv::lint::lint_source;
using omv::lint::lint_tree;

#ifndef OMVLINT_FIXTURE_DIR
#error "build must define OMVLINT_FIXTURE_DIR"
#endif
const char* const kFixtures = OMVLINT_FIXTURE_DIR;

std::string read_fixture(const std::string& rel) {
  const std::string path = std::string(kFixtures) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

LintResult lint_fixture(const std::string& rel) {
  return lint_source(rel, read_fixture(rel));
}

std::vector<std::string> rules_of(const LintResult& r) {
  std::vector<std::string> out;
  out.reserve(r.diagnostics.size());
  for (const auto& d : r.diagnostics) out.push_back(d.rule);
  return out;
}

std::size_t count_rule(const LintResult& r, const std::string& rule) {
  const std::vector<std::string> rules = rules_of(r);
  return static_cast<std::size_t>(
      std::count(rules.begin(), rules.end(), rule));
}

TEST(OmvlintRules, StdoutDisciplineFlagsEachDirectWrite) {
  const LintResult r = lint_fixture("bench/stdout_violation.cpp");
  EXPECT_EQ(r.diagnostics.size(), 3u);
  EXPECT_EQ(count_rule(r, "stdout-discipline"), 3u);
  // printf call, cout stream, raw stdout handle — one diagnostic each,
  // and the stderr log line stays clean.
  std::vector<std::size_t> lines;
  for (const auto& d : r.diagnostics) lines.push_back(d.line);
  EXPECT_EQ(lines, (std::vector<std::size_t>{8, 9, 10}));
}

TEST(OmvlintRules, AtomicWritesFlagsOfstreamAndFopen) {
  const LintResult r = lint_fixture("src/cli/raw_write_violation.cpp");
  EXPECT_EQ(r.diagnostics.size(), 2u);
  EXPECT_EQ(count_rule(r, "atomic-writes"), 2u);
  EXPECT_NE(r.diagnostics[0].message.find("atomic_write_file"),
            std::string::npos);
}

TEST(OmvlintRules, AmbientEntropyFlagsRngAndClocks) {
  const LintResult r = lint_fixture("src/sim/entropy_violation.cpp");
  EXPECT_EQ(count_rule(r, "no-ambient-entropy"), 4u);
  EXPECT_EQ(r.diagnostics.size(), 4u);  // random_device, system_clock,
                                        // time(), rand()
}

TEST(OmvlintRules, UnorderedIterationFlagsRangeForIncludingAlias) {
  const LintResult r = lint_fixture("src/cli/unordered_violation.cpp");
  EXPECT_EQ(count_rule(r, "unordered-iteration"), 2u);
  EXPECT_EQ(r.diagnostics.size(), 2u);  // direct decl + through alias
}

TEST(OmvlintRules, IsaGuardFlagsHeaderAndIntrinsics) {
  const LintResult r = lint_fixture("src/sim/isa_violation.cpp");
  // 1 include + 2 __m256d types + 3 _mm256_* calls.
  EXPECT_EQ(count_rule(r, "isa-guard"), 6u);
  EXPECT_EQ(r.diagnostics.size(), 6u);
}

// isa-guard has no per-file exemption: the fixture body trips all six hits
// under any path, including the two the rule used to exempt.
TEST(OmvlintRules, IsaKernelTusAreExempt) {
  const std::string body = read_fixture("src/sim/isa_violation.cpp");
  for (const char* path :
       {"src/sim/batch_avx2.cpp", "src/sim/batch_avx512.cpp",
        "bench/simd.cpp", "tools/x.cpp"}) {
    const LintResult r = lint_source(path, body);
    EXPECT_EQ(count_rule(r, "isa-guard"), 6u) << path;
    EXPECT_EQ(r.diagnostics.size(), 6u) << path;
  }
}

TEST(OmvlintSuppression, ReasonedAllowsSilenceAndAreCounted) {
  const LintResult r = lint_fixture("bench/suppressed_ok.cpp");
  EXPECT_TRUE(r.diagnostics.empty())
      << omv::lint::format(r.diagnostics.front());
  EXPECT_EQ(r.suppressions_honored, 3u);
}

TEST(OmvlintSuppression, MalformedEscapesAreThemselvesViolations) {
  const LintResult r = lint_fixture("bench/malformed_suppression.cpp");
  EXPECT_EQ(count_rule(r, "suppression"), 3u);
  // The reason-less allow() does not cover the printf under it.
  EXPECT_EQ(count_rule(r, "stdout-discipline"), 1u);
  EXPECT_EQ(r.diagnostics.size(), 4u);
  EXPECT_EQ(r.suppressions_honored, 0u);
}

TEST(OmvlintSuppression, CleanInScopeFileHasNoDiagnostics) {
  const LintResult r = lint_fixture("src/core/clean_ok.cpp");
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(r.suppressions_honored, 0u);
}

TEST(OmvlintTree, FixtureWalkFindsEveryPlantedViolation) {
  const LintResult r = lint_tree(kFixtures);
  EXPECT_EQ(r.files_scanned, 8u);
  EXPECT_EQ(count_rule(r, "stdout-discipline"), 4u);  // 3 + 1 uncovered
  EXPECT_EQ(count_rule(r, "atomic-writes"), 2u);
  EXPECT_EQ(count_rule(r, "no-ambient-entropy"), 4u);
  EXPECT_EQ(count_rule(r, "unordered-iteration"), 2u);
  EXPECT_EQ(count_rule(r, "isa-guard"), 6u);
  EXPECT_EQ(count_rule(r, "suppression"), 3u);
  EXPECT_EQ(r.suppressions_honored, 3u);
  // Walk order (and thus report order) is sorted-by-path deterministic.
  std::vector<std::string> files;
  for (const auto& d : r.diagnostics) files.push_back(d.file);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
}

TEST(OmvlintFormat, DiagnosticFormatIsStable) {
  Diagnostic d{"src/sim/x.cpp", 42, "isa-guard", "boom"};
  EXPECT_EQ(omv::lint::format(d), "src/sim/x.cpp:42: [isa-guard] boom");
}

TEST(OmvlintScoping, RulesDoNotFireOutsideTheirPaths) {
  // printf outside bench/ and src/bench_suite/ is not stdout-discipline's
  // business; ofstream outside the crash-safe dirs is fine; entropy in
  // core (supervisor backoff, bench timing) is allowlisted by scope.
  const std::string stdout_body = read_fixture("bench/stdout_violation.cpp");
  EXPECT_TRUE(lint_source("src/core/report.cpp", stdout_body)
                  .diagnostics.empty());
  const std::string write_body =
      read_fixture("src/cli/raw_write_violation.cpp");
  EXPECT_TRUE(lint_source("src/core/descriptive.cpp", write_body)
                  .diagnostics.empty());
  const std::string entropy_body =
      read_fixture("src/sim/entropy_violation.cpp");
  EXPECT_TRUE(lint_source("src/core/deadline.cpp", entropy_body)
                  .diagnostics.empty());
}

TEST(OmvlintScoping, HarnessAllowlistCoversTheNamedFilesOnly) {
  const std::string body = read_fixture("bench/stdout_violation.cpp");
  EXPECT_TRUE(lint_source("bench/harness.hpp", body).diagnostics.empty());
  EXPECT_FALSE(lint_source("bench/harness_util.hpp", body)
                   .diagnostics.empty());
}

TEST(OmvlintTokenizer, StringsAndCommentsNeverTrigger) {
  const std::string body =
      "// printf in a comment\n"
      "/* std::cout in a block comment */\n"
      "const char* s = \"printf(\\\"x\\\")\";\n"
      "const char* r = R\"(std::cout << rand())\";\n";
  EXPECT_TRUE(lint_source("bench/strings.cpp", body).diagnostics.empty());
}

TEST(OmvlintTokenizer, MemberCallsDoNotTriggerCallRules) {
  const std::string body =
      "void f(Timer& t) { t.time(); obj->rand(); }\n";
  EXPECT_TRUE(lint_source("src/sim/members.cpp", body)
                  .diagnostics.empty());
}

TEST(OmvlintApi, RuleNamesAreTheFiveContractRules) {
  const auto& names = omv::lint::rule_names();
  EXPECT_EQ(names, (std::vector<std::string>{
                       "stdout-discipline", "atomic-writes",
                       "no-ambient-entropy", "unordered-iteration",
                       "isa-guard"}));
}

}  // namespace
