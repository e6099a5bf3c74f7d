#pragma once
// Command-line / environment handling for the omnivar campaign driver.
//
// Flags:
//   --list            list registered harnesses and exit
//   --scenarios       list the scenario catalog and exit
//   --only <glob>     select harnesses by name glob (repeatable)
//   --jobs[=]N        the executor width: campaign units and protocol runs
//                     share N workers (0 = one per hardware thread, at
//                     most kMaxJobs); falls back to OMNIVAR_JOBS, else 1 —
//                     serial
//   --scenario[=]S    run on scenario S: a catalog name or a scenario-file
//                     path; repeatable — the omnivar driver fans the
//                     selected harnesses out over every listed scenario in
//                     one process (one shared --out cache); falls back to
//                     OMNIVAR_SCENARIO, else the paper's Dardel+Vera
//                     default
//   --scenario-set[=]FILE
//                     append the scenario selectors listed in FILE (one
//                     per line; '#' comments and blank lines skipped) to
//                     the --scenario list
//   --cell-jobs[=]N   deprecated alias of --jobs (OMNIVAR_CELL_JOBS): the
//                     width is the larger of the two
//   --plan            enumerate every protocol cell the selection would
//                     run (harness, scenario, label, spec hash, cost) and
//                     exit without computing anything
//   --out[=]DIR       campaign directory: JSON artifacts + result cache
//   --checkpoint-every[=]N
//                     checkpoint each protocol cell every N timed reps to
//                     a .snap sidecar of its cache entry (requires --out);
//                     falls back to OMNIVAR_CHECKPOINT_EVERY
//   --resume[=]SRC    resume interrupted cells: "auto" scans each cell's
//                     .snap sidecar, an explicit path names one snapshot
//                     (requires --out)
//   --retry-cells[=]N retry a failing protocol cell N times (seeded
//                     exponential backoff) before quarantining it; falls
//                     back to OMNIVAR_RETRY_CELLS, else 0
//   --cell-timeout[=]MS
//                     per-cell wall-clock budget in milliseconds, enforced
//                     cooperatively at repetition boundaries; falls back
//                     to OMNIVAR_CELL_TIMEOUT_MS, else unlimited
//   --fault-spec[=]SPEC
//                     arm the deterministic fault-injection plan (see
//                     core/faultinject.hpp for the grammar); falls back to
//                     OMNIVAR_FAULT_SPEC; a malformed spec is a usage
//                     error (exit 2), never silently ignored
//   --version         print engine version and snapshot format on stdout
//                     and exit
//   --help            usage
// Parsing is strict: a typo'd jobs value must not silently become
// "saturate every core" on a measurement harness, so malformed values are
// reported and ignored rather than guessed at.

#include <cstddef>
#include <string>
#include <vector>

namespace omv::cli {

/// Strictly parses a non-negative integer. Returns false on empty,
/// non-digit, negative, or overflowing input (strtoul alone would happily
/// wrap "-4").
[[nodiscard]] bool parse_uint(const char* text, std::size_t& out);

/// Widest executor a job count may ask for. Each worker is an OS thread,
/// so a typo'd width (or an env var holding garbage) must not reach the
/// thread pool and abort the process when thread creation fails.
inline constexpr std::size_t kMaxJobs = 1024;

/// Strictly parses a job count ("0" = hardware concurrency). Returns false
/// on malformed input and on counts above kMaxJobs.
[[nodiscard]] bool parse_job_count(const char* text, std::size_t& out);

/// Parsed omnivar options.
struct Options {
  bool list = false;
  bool list_scenarios = false;  ///< --scenarios catalog listing.
  bool version = false;         ///< --version identity report.
  bool help = false;
  bool plan = false;              ///< --plan cell enumeration listing.
  std::vector<std::string> only;  ///< --only name globs (empty = all).
  std::size_t jobs = 0;           ///< resolved worker count; 0 = unset.
  std::size_t cell_jobs = 0;      ///< deprecated --cell-jobs; 0 = unset.
  std::vector<std::string> scenarios;  ///< --scenario selectors, in order.
  std::string scenario_set;       ///< --scenario-set file; empty = none.
  std::string out_dir;            ///< --out campaign dir; empty = none.
  std::size_t checkpoint_every = 0;  ///< --checkpoint-every; 0 = off.
  std::string resume;  ///< --resume "auto" or snapshot path; empty = off.
  std::size_t retry_cells = 0;     ///< --retry-cells; 0 = no retries.
  std::size_t cell_timeout_ms = 0;  ///< --cell-timeout; 0 = unlimited.
  std::string fault_spec;  ///< --fault-spec; empty = unset.
  std::vector<std::string> errors;  ///< malformed/unknown arguments.
};

/// Parses argv. Unknown arguments and malformed values are collected in
/// `errors` (reported by the caller); parsing always completes.
[[nodiscard]] Options parse_options(int argc, char** argv);

/// Effective worker count: `cli_jobs` when set (non-zero), else the
/// OMNIVAR_JOBS environment variable (0 there = hardware concurrency; a
/// malformed value is reported once to stderr and ignored), else 1 —
/// serial, the paper's original execution model.
[[nodiscard]] std::size_t effective_jobs(std::size_t cli_jobs);

/// Effective scenario selector list: the repeated --scenario values plus
/// the lines of --scenario-set FILE, in order; when both are absent, the
/// OMNIVAR_SCENARIO environment variable as a single selector, else empty
/// — the paper's Dardel+Vera default. Throws std::runtime_error when the
/// set file cannot be read (a typo'd file must not silently run the
/// default scenario).
[[nodiscard]] std::vector<std::string> effective_scenarios(const Options& o);

/// The deprecated --cell-jobs alias: `cli_cell_jobs` when set (non-zero),
/// else OMNIVAR_CELL_JOBS (0 there = hardware concurrency; malformed
/// values reported once to stderr and ignored), else 1.
[[nodiscard]] std::size_t effective_cell_jobs(std::size_t cli_cell_jobs);

/// The executor width: the larger of effective_jobs(o.jobs) and the
/// deprecated alias effective_cell_jobs(o.cell_jobs).
[[nodiscard]] std::size_t effective_width(const Options& o);

/// Effective checkpoint cadence: `cli_every` when set (non-zero), else the
/// OMNIVAR_CHECKPOINT_EVERY environment variable (malformed values are
/// reported once to stderr and ignored), else 0 — checkpointing off.
[[nodiscard]] std::size_t effective_checkpoint_every(std::size_t cli_every);

/// Effective cell retry budget: `cli_retries` when set (non-zero), else
/// OMNIVAR_RETRY_CELLS (malformed values reported once and ignored),
/// else 0 — quarantine on the first failure.
[[nodiscard]] std::size_t effective_retry_cells(std::size_t cli_retries);

/// Effective per-cell wall-clock budget in ms: `cli_ms` when set
/// (non-zero), else OMNIVAR_CELL_TIMEOUT_MS (malformed values reported
/// once and ignored), else 0 — unlimited.
[[nodiscard]] std::size_t effective_cell_timeout_ms(std::size_t cli_ms);

/// Effective fault spec: `cli_spec` when non-empty, else
/// OMNIVAR_FAULT_SPEC, else "" — no faults armed.
[[nodiscard]] std::string effective_fault_spec(const std::string& cli_spec);

}  // namespace omv::cli
