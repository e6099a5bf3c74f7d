#pragma once
// Two-sample variance test used to decide whether two experimental
// configurations (e.g. pinned vs unpinned) differ significantly in spread,
// plus the distribution helpers the statistics layer shares. p-values are
// approximate, suitable for the sample sizes used in the paper's protocol
// (n in the tens to thousands).

#include <span>

namespace omv::stats {

/// Result of a two-sample hypothesis test.
struct TestResult {
  double statistic = 0.0;
  double p_value = 1.0;
  /// True when p_value < alpha used at call time (recorded for reporting).
  bool significant = false;
  double alpha = 0.05;
};

/// Brown–Forsythe (median-centred Levene) test for equality of variances —
/// the relevant test when asking "did pinning reduce variability?".
[[nodiscard]] TestResult brown_forsythe(std::span<const double> a,
                                        std::span<const double> b,
                                        double alpha = 0.05);

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double z) noexcept;

/// F-distribution upper-tail probability approximation (Paulson/Wilson-
/// Hilferty normal approximation), used by Brown–Forsythe.
[[nodiscard]] double f_upper_p(double f, double df1, double df2) noexcept;

}  // namespace omv::stats
