#pragma once
// Supervised cell execution: retry, timeout, quarantine.
//
// The campaign's cache layer hands every cold cell's compute-and-commit
// function to supervise_cell, which:
//   * consults the active fault plan (injected throws and stalls fire
//     here, deterministically);
//   * arms the cooperative per-cell wall-clock deadline (--cell-timeout;
//     repetition loops poll it — worker-pool-based cancellation, no
//     in-process signals);
//   * on failure retries up to `retries` times with seeded exponential
//     backoff (the seed derives from the cell hash, so backoff schedules
//     are reproducible);
//   * after the last attempt throws CellQuarantined carrying the failure
//     record (taxonomy, attempts, error text) — the campaign driver
//     quarantines the cell, keeps running every other harness, and exits
//     kExitQuarantined.
//
// Error taxonomy: "timeout" (core::CellTimeout), "io" (injected
// torn_write/enospc, filesystem errors from the commit path), "exception"
// (anything else a cell throws).

#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/run_matrix.hpp"

namespace omv::cli {

/// One quarantined cell, as recorded in campaign.json's failures block.
struct CellFailure {
  std::string label;     ///< cell label (harness-scoped)
  std::string hash;      ///< 16-hex spec hash ("" when caching is off)
  std::string taxonomy;  ///< "timeout" | "io" | "exception"
  std::string error;     ///< what() of the final attempt
  std::size_t attempts = 0;  ///< total attempts (1 + retries performed)
};

/// Raised by supervise_cell once retries are exhausted; unwinds the
/// harness (the failed cell's matrix cannot exist, so dependent cells of
/// the same harness cannot run) and is absorbed by the campaign driver.
class CellQuarantined : public std::runtime_error {
 public:
  explicit CellQuarantined(CellFailure f)
      : std::runtime_error("cell '" + f.label + "' quarantined (" +
                           f.taxonomy + " after " +
                           std::to_string(f.attempts) + " attempt(s)): " +
                           f.error),
        failure(std::move(f)) {}
  CellFailure failure;
};

struct SupervisorConfig {
  std::size_t retries = 0;  ///< --retry-cells: extra attempts after the 1st
  std::chrono::milliseconds timeout{0};  ///< --cell-timeout; 0 = none
};

/// Classifies an in-flight exception for the failure taxonomy (exposed for
/// tests). Call inside a catch block.
[[nodiscard]] std::string classify_current_exception();

/// Seeded backoff delay before retry attempt `attempt` (1-based): an
/// exponential base doubled per attempt with ±25% deterministic jitter
/// derived from `seed`. Exposed for tests.
[[nodiscard]] std::chrono::milliseconds backoff_delay(std::uint64_t seed,
                                                      std::size_t attempt);

/// Runs `body` under supervision (see file comment). `label` names the
/// cell for fault matching and diagnostics; `hash` its cache stem (may be
/// empty). Returns body's matrix on the first successful attempt.
[[nodiscard]] RunMatrix supervise_cell(
    const SupervisorConfig& cfg, const std::string& label,
    const std::string& hash, const std::function<RunMatrix()>& body);

}  // namespace omv::cli
