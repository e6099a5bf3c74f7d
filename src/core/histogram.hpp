#pragma once
// Fixed-width histograms with automatic bin selection, used by the modality
// detector.

#include <cstddef>
#include <span>
#include <vector>

namespace omv::stats {

/// A fixed-width histogram over [lo, hi].
class Histogram {
 public:
  /// Builds a histogram with `bins` equal-width bins spanning [lo, hi].
  /// Values outside the range are clamped into the edge bins.
  Histogram(double lo, double hi, std::size_t bins);

  /// Builds a histogram over the data range using the given bin count.
  static Histogram from_data(std::span<const double> xs, std::size_t bins);

  /// Builds a histogram with the Freedman–Diaconis bin width (falls back to
  /// Sturges when IQR is zero). Good default for timing distributions.
  static Histogram auto_binned(std::span<const double> xs);

  /// Adds one observation.
  void add(double x) noexcept;
  /// Adds all observations.
  void add_all(std::span<const double> xs) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] std::size_t count(std::size_t bin) const {
    return counts_.at(bin);
  }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] const std::vector<std::size_t>& counts() const noexcept {
    return counts_;
  }

  /// Counts smoothed with a centered moving average of half-width `radius`
  /// (used for peak counting; returns densities, not counts).
  [[nodiscard]] std::vector<double> smoothed(std::size_t radius) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Number of bins suggested by Sturges' rule.
[[nodiscard]] std::size_t sturges_bins(std::size_t n) noexcept;

/// Number of bins suggested by the Freedman–Diaconis rule (0 if degenerate).
[[nodiscard]] std::size_t freedman_diaconis_bins(std::span<const double> xs);

}  // namespace omv::stats
