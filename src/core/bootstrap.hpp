#pragma once
// Percentile-bootstrap confidence intervals.
//
// The paper argues from repeated runs without kernel tracing; bootstrap CIs
// let the harness state whether an observed min/max spread or CV difference
// is statistically meaningful given only 10 runs x 100 repetitions.

#include <cstdint>
#include <functional>
#include <span>

namespace omv::stats {

/// A two-sided confidence interval for a statistic.
struct ConfidenceInterval {
  double point = 0.0;  ///< statistic on the original sample.
  double lo = 0.0;     ///< lower CI bound.
  double hi = 0.0;     ///< upper CI bound.
  double level = 0.95;
};

/// Statistic evaluated on a (resampled) sample.
using Statistic = std::function<double(std::span<const double>)>;

/// Percentile bootstrap CI with `resamples` resamples at confidence `level`.
/// Deterministic given `seed`. An empty sample returns the zero interval;
/// a single-element sample (or resamples == 0) collapses to a point
/// interval; a sample containing NaN yields NaN point/lo/hi.
[[nodiscard]] ConfidenceInterval bootstrap_ci(std::span<const double> xs,
                                              const Statistic& stat,
                                              std::size_t resamples = 2000,
                                              double level = 0.95,
                                              std::uint64_t seed = 42);

/// Convenience: CI of the mean.
[[nodiscard]] ConfidenceInterval bootstrap_mean_ci(std::span<const double> xs,
                                                   std::size_t resamples = 2000,
                                                   double level = 0.95,
                                                   std::uint64_t seed = 42);

}  // namespace omv::stats
