#pragma once
// RunMatrix — the central data structure of the paper's protocol.
//
// Every experimental configuration is executed as R independent *runs*
// (fresh process / fresh team in the paper: 10), each consisting of K outer
// *repetitions* of the kernel of interest (EPCC: 100). A RunMatrix stores the
// R x K execution times and provides the paper's derived metrics:
//   * per-run Summary (mean / min / max / CV),
//   * normalized min & max per run (Fig. 3, Fig. 4),
//   * per-run CV (Fig. 5),
//   * between-run vs within-run variance decomposition.

#include <cstddef>
#include <span>
#include <vector>

#include "core/descriptive.hpp"
#include "core/variance_components.hpp"

namespace omv {

/// R runs x K repetitions of execution times (seconds or microseconds —
/// the unit is the caller's; metrics are unit-free or in the same unit).
class RunMatrix {
 public:
  RunMatrix() = default;

  /// Appends a completed run. Runs may have different repetition counts.
  void add_run(std::vector<double> rep_times);

  /// Number of runs recorded.
  [[nodiscard]] std::size_t runs() const noexcept { return data_.size(); }
  /// Repetition times of run `r`.
  [[nodiscard]] std::span<const double> run(std::size_t r) const {
    return data_.at(r);
  }

  /// Summary of run `r`.
  [[nodiscard]] stats::Summary run_summary(std::size_t r) const;
  /// Mean execution time of run `r`.
  [[nodiscard]] double run_mean(std::size_t r) const;
  /// Coefficient of variation within run `r` (Fig. 5 metric).
  [[nodiscard]] double run_cv(std::size_t r) const;
  /// min/mean of run `r` (Fig. 3/4 lower whisker).
  [[nodiscard]] double run_norm_min(std::size_t r) const;
  /// max/mean of run `r` (Fig. 3/4 upper whisker).
  [[nodiscard]] double run_norm_max(std::size_t r) const;

  /// Per-run means across all runs (the paper's "Avg." series).
  [[nodiscard]] std::vector<double> run_means() const;
  /// Per-run CVs across all runs.
  [[nodiscard]] std::vector<double> run_cvs() const;

  /// Summary over all repetitions of all runs pooled together.
  [[nodiscard]] stats::Summary pooled_summary() const;

  /// Grand mean over runs of run means.
  [[nodiscard]] double grand_mean() const;

  /// CV *of the run means* — the run-to-run variability metric.
  [[nodiscard]] double run_to_run_cv() const;

  /// Largest run mean divided by smallest run mean (>= 1); the paper's
  /// "run X took noticeably longer" indicator.
  [[nodiscard]] double run_mean_spread() const;

  /// Between/within variance decomposition over the whole matrix.
  [[nodiscard]] stats::VarianceComponents variance_components() const;

  /// All repetition times flattened (row-major).
  [[nodiscard]] std::vector<double> flatten() const;

  /// Underlying storage (for serialization).
  [[nodiscard]] const std::vector<std::vector<double>>& rows() const noexcept {
    return data_;
  }

 private:
  std::vector<std::vector<double>> data_;
};

}  // namespace omv
