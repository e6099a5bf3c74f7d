#pragma once
// omvlint — the project's determinism-contract checker.
//
// A deliberately small, libclang-free lint: a C++ tokenizer plus per-rule
// token matchers over the source tree. It does not type-check; every rule
// is a syntactic invariant chosen so that a match is near-certainly a
// violation of the repo's byte-identity contract:
//
//   stdout-discipline    harness science output only via ctx.print/emit
//   atomic-writes        cache/artifact writes only through
//                        core/atomic_file
//   no-ambient-entropy   no wall clocks or ambient randomness in the
//                        simulator core (RNG flows from run_seed)
//   unordered-iteration  no range-for over unordered containers on
//                        serialization/fingerprint/artifact paths
//   isa-guard            no SIMD intrinsics or intrinsics headers
//                        anywhere in the tree
//
// Violations print "file:line: [rule] message". A site is suppressed with
// an explicit, reasoned comment on the same line (or alone on the line
// above):
//
//   // omvlint: allow(<rule>[,<rule>...]) <reason text>
//
// A comment that names omvlint but does not parse to that grammar (or
// names an unknown rule, or omits the reason) is itself a violation of the
// pseudo-rule "suppression", so stale or typo'd escapes can never silently
// disable a check.

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace omv::lint {

/// One violation, anchored to a file position. `file` is the path relative
/// to the lint root using '/' separators — rules are scoped by these
/// relative paths, so fixture trees that mirror the repo layout exercise
/// the same scoping as the real tree.
struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Aggregate outcome of a lint run.
struct LintResult {
  std::vector<Diagnostic> diagnostics;
  std::size_t files_scanned = 0;
  /// Count of would-be violations silenced by a well-formed
  /// `omvlint: allow(...)` comment.
  std::size_t suppressions_honored = 0;
};

/// The checkable rule names, in report order (excludes the "suppression"
/// pseudo-rule, which cannot be allowed away).
const std::vector<std::string>& rule_names();

/// Lints one in-memory translation unit as if it lived at `relpath` under
/// the lint root. The primary entry for tests.
LintResult lint_source(std::string_view relpath, std::string_view content);

/// Lints every C/C++ source file under `root` (skipping build trees, VCS
/// dirs, and omvlint's own fixture corpus).
LintResult lint_tree(const std::filesystem::path& root);

/// "file:line: [rule] message" — the stable diagnostic format asserted by
/// tests and grepped by CI.
std::string format(const Diagnostic& d);

}  // namespace omv::lint
