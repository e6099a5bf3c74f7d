#pragma once
// Deterministic fault injection for the campaign engine.
//
// A fault plan is parsed from a textual spec (the OMNIVAR_FAULT_SPEC
// environment variable or the --fault-spec flag) and armed process-wide.
// Named sites threaded through the engine — cache commits ("cache", "key",
// "sidecar"), artifact writes ("artifact", "campaign") and supervised cell
// execution — consult the plan at each
// operation, so every failure mode the fault-tolerance layer handles is
// reproducible bit-for-bit in tests and CI: the same spec against the same
// campaign always fires at the same operation.
//
// Spec grammar (comma-separated clauses; whitespace around clauses ignored):
//   cell_throw@N            Nth supervised cell attempt throws (1-based,
//                           counted across the whole process)
//   cell_throw:GLOB         every cell whose label matches GLOB throws
//   cell_throw:GLOB@N       Nth attempt of cells matching GLOB throws
//   torn_write:SITE@N       Nth write at a site matching SITE commits only
//                           half its payload directly to the final path
//                           (simulating a crash mid-write), then reports an
//                           injected I/O error
//   enospc@N                Nth write at any site fails before writing
//   enospc:SITE@N           ... at a site matching SITE
//   slow_cell:GLOB:DURms    cells whose label matches GLOB stall DUR
//                           milliseconds before computing (trips the
//                           per-cell timeout deterministically)
//
// Occurrence counters are per clause and 1-based; a clause without @N fires
// on every match. Parsing is strict: a malformed spec throws
// std::invalid_argument naming the offending clause — a typo'd fault spec
// must never silently run a healthy campaign that CI then treats as a
// fault-survival proof.

#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace omv::fault {

/// Error raised by a fired fault clause. `taxonomy()` feeds the campaign
/// failure classification ("io" for torn_write/enospc, "exception" for
/// cell_throw).
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(std::string taxonomy, const std::string& what)
      : std::runtime_error(what), taxonomy_(std::move(taxonomy)) {}
  [[nodiscard]] const std::string& taxonomy() const noexcept {
    return taxonomy_;
  }

 private:
  std::string taxonomy_;
};

/// Glob match supporting '*' (any substring) and '?' (any one character) —
/// the same dialect as the harness selector globs.
[[nodiscard]] bool glob_match(std::string_view pattern,
                              std::string_view text) noexcept;

enum class FaultKind {
  kCellThrow,
  kTornWrite,
  kEnospc,
  kSlowCell,
};

/// One parsed clause plus its live occurrence counter.
struct FaultClause {
  FaultKind kind = FaultKind::kCellThrow;
  std::string pattern;  ///< site / cell-label glob ("" = any).
  std::size_t occurrence = 0;  ///< fire on the Nth match only (0 = every).
  std::chrono::milliseconds delay{0};  ///< slow_cell stall.
  std::size_t seen = 0;  ///< matches observed so far (counter state).
};

/// What a write site should do about the current operation.
enum class WriteAction {
  kNone,  ///< proceed normally
  kTorn,  ///< write half the payload to the final path, then raise
  kFail,  ///< raise before writing anything
};

/// A parsed fault plan with live counters. Thread-safe: sites may be hit
/// from worker threads.
class FaultPlan {
 public:
  FaultPlan() = default;
  // Movable despite the counter mutex (plans move only while unshared,
  // before any site can touch the counters).
  FaultPlan(FaultPlan&& other) noexcept
      : clauses_(std::move(other.clauses_)) {}
  FaultPlan& operator=(FaultPlan&& other) noexcept {
    clauses_ = std::move(other.clauses_);
    return *this;
  }

  /// Parses `spec`; throws std::invalid_argument naming the bad clause.
  static FaultPlan parse(std::string_view spec);

  /// True when at least one clause is armed.
  [[nodiscard]] bool armed() const noexcept { return !clauses_.empty(); }

  /// Consulted by atomic_write_file for every write at a named site.
  /// Advances matching torn_write/enospc counters; kFail wins over kTorn
  /// when both fire on the same operation.
  [[nodiscard]] WriteAction on_write(std::string_view site);

  /// Consulted by the cell supervisor at the start of every cell attempt.
  /// Advances matching slow_cell/cell_throw counters; returns the injected
  /// stall (zero when none) and throws InjectedFault("exception", ...) when
  /// a cell_throw clause fires. The stall is returned rather than slept
  /// here so the caller can slice it against the cell deadline.
  [[nodiscard]] std::chrono::milliseconds on_cell_attempt(
      std::string_view label);

  [[nodiscard]] const std::vector<FaultClause>& clauses() const noexcept {
    return clauses_;
  }

 private:
  std::vector<FaultClause> clauses_;
  std::mutex mutex_;
};

/// The process-wide plan: parsed lazily from OMNIVAR_FAULT_SPEC on first
/// use (a malformed env spec throws then — callers resolving at startup
/// surface it as a usage error). Never null.
[[nodiscard]] FaultPlan& active_plan();

/// Replaces the process-wide plan (parses `spec`; "" disarms). Used by the
/// CLI for --fault-spec and by tests; throws std::invalid_argument on a
/// malformed spec, leaving the previous plan armed.
void set_active_spec(std::string_view spec);

/// Disarms the process-wide plan and forgets any OMNIVAR_FAULT_SPEC read.
void clear_active_plan();

}  // namespace omv::fault
