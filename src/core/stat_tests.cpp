#include "core/stat_tests.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/descriptive.hpp"

namespace omv::stats {

double normal_cdf(double z) noexcept {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double f_upper_p(double f, double df1, double df2) noexcept {
  if (f <= 0.0) return 1.0;
  // Paulson's normal approximation to the F distribution.
  const double x = std::cbrt(f);
  const double a = 2.0 / (9.0 * df1);
  const double b = 2.0 / (9.0 * df2);
  const double num = x * (1.0 - b) - (1.0 - a);
  const double den = std::sqrt(std::max(1e-300, a + x * x * b));
  return 1.0 - normal_cdf(num / den);
}

TestResult brown_forsythe(std::span<const double> a, std::span<const double> b,
                          double alpha) {
  TestResult r;
  r.alpha = alpha;
  if (a.size() < 2 || b.size() < 2) return r;
  const double med_a = percentile(a, 50.0);
  const double med_b = percentile(b, 50.0);
  std::vector<double> za;
  std::vector<double> zb;
  za.reserve(a.size());
  zb.reserve(b.size());
  for (double x : a) za.push_back(std::abs(x - med_a));
  for (double x : b) zb.push_back(std::abs(x - med_b));
  const auto su_a = summarize(za);
  const auto su_b = summarize(zb);
  const double na = static_cast<double>(za.size());
  const double nb = static_cast<double>(zb.size());
  const double n = na + nb;
  const double grand = (su_a.mean * na + su_b.mean * nb) / n;
  const double between = na * (su_a.mean - grand) * (su_a.mean - grand) +
                         nb * (su_b.mean - grand) * (su_b.mean - grand);
  double within = 0.0;
  for (double z : za) within += (z - su_a.mean) * (z - su_a.mean);
  for (double z : zb) within += (z - su_b.mean) * (z - su_b.mean);
  if (within <= 0.0) {
    r.p_value = between > 0.0 ? 0.0 : 1.0;
    r.significant = r.p_value < alpha;
    return r;
  }
  const double df1 = 1.0;  // two groups
  const double df2 = n - 2.0;
  r.statistic = (between / df1) / (within / df2);
  r.p_value = f_upper_p(r.statistic, df1, df2);
  r.significant = r.p_value < alpha;
  return r;
}

}  // namespace omv::stats
