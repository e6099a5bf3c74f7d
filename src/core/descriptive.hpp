#pragma once
// Descriptive statistics for execution-time samples.
//
// Two entry points:
//   * OnlineStats  — streaming Welford accumulator (O(1) memory), used while
//                    an experiment is running.
//   * Summary      — batch summary of a finished sample, including order
//                    statistics (median, percentiles, IQR, MAD) which a
//                    streaming accumulator cannot provide.

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace omv::stats {

/// Streaming mean/variance/extrema accumulator (Welford's algorithm,
/// numerically stable for long runs of near-equal timings).
class OnlineStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Number of observations added.
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  /// Arithmetic mean (0 if empty).
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 if fewer than two observations).
  [[nodiscard]] double variance() const noexcept;
  /// Sample standard deviation.
  [[nodiscard]] double stddev() const noexcept;
  /// Coefficient of variation: stddev / mean (0 if mean is 0).
  [[nodiscard]] double cv() const noexcept;
  /// Smallest observation (+inf if empty).
  [[nodiscard]] double min() const noexcept { return min_; }
  /// Largest observation (-inf if empty).
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Linear-interpolation percentile (type-7, the numpy/R default).
/// `p` in [0, 100]. The input need not be sorted. Returns 0 for empty input
/// and NaN when any input value is NaN (NaN breaks sorting, so every order
/// statistic of such a sample is meaningless).
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Percentile of an already ascending-sorted sample (no copy). The input
/// must be genuinely sorted and NaN-free — use percentile() when that is
/// not guaranteed.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p) noexcept;

/// Percentile via selection (std::nth_element) instead of a full sort:
/// O(n) rather than O(n log n) for one order statistic. Partially reorders
/// `xs` in place; the input must be NaN-free. Selects the exact elements a
/// full sort would, so the interpolated result is bit-identical to
/// percentile_sorted(sorted_copy(xs), p).
[[nodiscard]] double percentile_in_place(std::span<double> xs,
                                         double p) noexcept;

/// Median absolute deviation, scaled by 1.4826 so it estimates sigma for
/// normal data (robust spread estimate). NaN inputs propagate to NaN.
[[nodiscard]] double mad(std::span<const double> xs);

/// True when any element is NaN (the poisoned-sample check used by the
/// batch statistics above).
[[nodiscard]] bool has_nan(std::span<const double> xs) noexcept;

/// Batch summary of one sample of execution times.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double cv = 0.0;      ///< stddev / mean — the paper's Fig. 5 metric.
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
  double iqr = 0.0;     ///< p75 - p25.
  double mad = 0.0;     ///< scaled median absolute deviation.
  double skewness = 0.0;  ///< sample skewness (g1); 0 if n < 3 or sd == 0.
  double kurtosis = 0.0;  ///< excess kurtosis (g2); 0 if n < 4 or sd == 0.

  /// min / mean — the paper's Fig. 3 normalized minimum.
  [[nodiscard]] double norm_min() const noexcept {
    return mean != 0.0 ? min / mean : 0.0;
  }
  /// max / mean — the paper's Fig. 3 normalized maximum.
  [[nodiscard]] double norm_max() const noexcept {
    return mean != 0.0 ? max / mean : 0.0;
  }
};

/// Computes the full summary of a sample. If any value is NaN, every
/// statistic of the returned Summary is NaN (n still reports the sample
/// size) — a poisoned sample must not yield plausible-looking numbers.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Returns an ascending-sorted copy.
[[nodiscard]] std::vector<double> sorted_copy(std::span<const double> xs);

}  // namespace omv::stats
