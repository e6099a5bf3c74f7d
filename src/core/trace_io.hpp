#pragma once
// CSV import/export for experiment artifacts.
//
// RunMatrix and frequency traces round-trip through a plain CSV dialect so
// experiments can be archived, diffed across sessions, and analyzed with
// external tooling (the paper's methodology is exactly this: archive the
// runs, study the distributions offline).

#include <iosfwd>
#include <string>

#include "core/run_matrix.hpp"

namespace omv::io {

/// Largest run count read_run_matrix_csv accepts, whether declared by
/// "# runs=N" or implied by a data row's run index. The reader allocates
/// one run per index, so without a cap a few forged bytes could demand
/// gigabytes. The paper's protocol uses 10 runs; a matrix with more runs
/// than this does not round-trip.
inline constexpr std::size_t kMaxRunMatrixRuns = 100000;

/// Writes a RunMatrix as CSV: header "run,rep,time", a "# runs=N" metadata
/// line (the authoritative run count, preserving empty runs), then one row
/// per repetition with 17-significant-digit times (lossless double
/// round-trip).
void write_run_matrix_csv(std::ostream& os, const RunMatrix& m);
[[nodiscard]] std::string run_matrix_to_csv(const RunMatrix& m);

/// Parses the CSV produced by write_run_matrix_csv. Rows may arrive in any
/// order; runs are reassembled by index; lines starting with '#' are
/// metadata/comments; CRLF line endings are tolerated. The parser is
/// strict — std::invalid_argument is thrown on:
///   * a bad header or malformed run/rep/time field,
///   * trailing garbage after the time field ("0,0,1.5,junk"),
///   * duplicate (run, rep) cells (would silently overwrite a measurement),
///   * gapped rep indices within a run (a lost repetition must not be
///     silently compacted),
///   * a gap in run indices when the file carries no "# runs=N" metadata
///     (files written by write_run_matrix_csv always do; in those, a run
///     with no rows is an intentionally empty run),
///   * a declared run count above kMaxRunMatrixRuns, or a run index at or
///     past it (rejected before anything is allocated for it).
[[nodiscard]] RunMatrix read_run_matrix_csv(std::istream& is,
                                            std::string label = "");
[[nodiscard]] RunMatrix run_matrix_from_csv(const std::string& csv,
                                            std::string label = "");

/// Writes / reads to a file path (throws std::runtime_error on IO failure).
void save_run_matrix(const std::string& path, const RunMatrix& m);
[[nodiscard]] RunMatrix load_run_matrix(const std::string& path,
                                        std::string label = "");

}  // namespace omv::io
