#pragma once
// Outlier detection for timing samples.
//
// Tukey fences (IQR-based, the textbook boxplot rule), classifying which
// tail the outliers sit in — timing noise almost always produces a *high*
// tail (delays), so a low tail hints at measurement error.

#include <cstddef>
#include <span>
#include <vector>

namespace omv::stats {

/// Where a sample's outliers are concentrated.
enum class Tail { none, high, low, both };

/// Result of an outlier scan.
struct OutlierReport {
  std::vector<std::size_t> indices;  ///< positions of outliers in the input.
  std::size_t n_high = 0;            ///< outliers above the upper bound.
  std::size_t n_low = 0;             ///< outliers below the lower bound.
  double lower_bound = 0.0;
  double upper_bound = 0.0;
  Tail tail = Tail::none;

  [[nodiscard]] std::size_t count() const noexcept { return indices.size(); }
  /// Fraction of the sample flagged as outliers.
  [[nodiscard]] double fraction(std::size_t n) const noexcept {
    return n ? static_cast<double>(indices.size()) / static_cast<double>(n)
             : 0.0;
  }
};

/// Tukey fences: outliers lie outside [Q1 - k*IQR, Q3 + k*IQR].
/// k = 1.5 is the standard "outlier", k = 3 the "far out" rule.
[[nodiscard]] OutlierReport tukey_outliers(std::span<const double> xs,
                                           double k = 1.5);

/// Human-readable tail name.
[[nodiscard]] const char* tail_name(Tail t) noexcept;

}  // namespace omv::stats
