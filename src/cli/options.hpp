#pragma once
// Command-line handling for the omnivar campaign driver. Every setting
// comes from argv; `omnivar --help` (print_usage in cli/campaign.cpp)
// lists the flags. The only environment variables the driver reads are
// the protocol size (OMNIVAR_QUICK / OMNIVAR_RUNS / OMNIVAR_REPS, read by
// bench/harness.hpp) and the OMNIVAR_ENGINE_VERSION test hook.
//
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
/// so a typo'd width must not reach the thread pool and abort the process
/// when thread creation fails.
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
  std::string out_dir;            ///< --out campaign dir; empty = none.
  std::size_t retry_cells = 0;     ///< --retry-cells; 0 = no retries.
  std::size_t cell_timeout_ms = 0;  ///< --cell-timeout; 0 = unlimited.
  std::string fault_spec;  ///< --fault-spec; empty = unset.
  std::vector<std::string> errors;  ///< malformed/unknown arguments.
};

/// Parses argv. Unknown arguments and malformed values are collected in
/// `errors` (reported by the caller); parsing always completes.
[[nodiscard]] Options parse_options(int argc, char** argv);

/// The executor width: the larger of --jobs and the deprecated alias
/// --cell-jobs, and 1 (serial, the paper's original execution model) when
/// neither is set.
[[nodiscard]] std::size_t effective_width(const Options& o);

}  // namespace omv::cli
