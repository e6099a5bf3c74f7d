#pragma once
// Two-sample hypothesis tests used to decide whether two experimental
// configurations (e.g. pinned vs unpinned, ST vs MT) differ significantly in
// location or spread. All tests return approximate p-values suitable for the
// sample sizes used in the paper's protocol (n in the tens to thousands).

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

/// Welch's unequal-variance t-test for difference of means.
/// Uses the normal approximation to the t distribution for df > 30 and a
/// Hill-type approximation below; adequate for reporting purposes.
[[nodiscard]] TestResult welch_t_test(std::span<const double> a,
                                      std::span<const double> b,
                                      double alpha = 0.05);

/// Mann–Whitney U test (two-sided, normal approximation with tie
/// correction) for difference of distributions — robust to the heavy tails
/// typical of noisy timing data.
[[nodiscard]] TestResult mann_whitney_u(std::span<const double> a,
                                        std::span<const double> b,
                                        double alpha = 0.05);

/// Two-sample Kolmogorov–Smirnov test (asymptotic p-value) for any
/// distributional difference.
[[nodiscard]] TestResult ks_test(std::span<const double> a,
                                 std::span<const double> b,
                                 double alpha = 0.05);

/// Brown–Forsythe (median-centred Levene) test for equality of variances —
/// the relevant test when asking "did pinning reduce variability?".
[[nodiscard]] TestResult brown_forsythe(std::span<const double> a,
                                        std::span<const double> b,
                                        double alpha = 0.05);

/// Hedges' g: the standardized mean difference (b - a) over the pooled SD,
/// small-sample corrected; |g| ~ 0.2 is small, 0.8 large. 0 when either
/// sample has fewer than two values or both are constant.
[[nodiscard]] double hedges_g(std::span<const double> a,
                              std::span<const double> b);

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double z) noexcept;

/// Student-t two-sided p-value via normal/Hill approximation.
[[nodiscard]] double t_two_sided_p(double t, double df) noexcept;

/// F-distribution upper-tail probability approximation (Paulson/Wilson-
/// Hilferty normal approximation), used by Brown–Forsythe.
[[nodiscard]] double f_upper_p(double f, double df1, double df2) noexcept;

}  // namespace omv::stats
