#include "core/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace omv::stats {

void OnlineStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  // mean_/m2_ propagate NaN arithmetically, but std::min/max would drop it
  // (NaN comparisons are false) — force the extrema to NaN too so a
  // poisoned sample cannot report clean-looking min/max.
  if (std::isnan(x)) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::cv() const noexcept {
  return mean_ != 0.0 ? stddev() / mean_ : 0.0;
}

std::vector<double> sorted_copy(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}

bool has_nan(std::span<const double> xs) noexcept {
  for (const double x : xs) {
    if (std::isnan(x)) return true;
  }
  return false;
}

double percentile_sorted(std::span<const double> sorted, double p) noexcept {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  p = std::clamp(p, 0.0, 100.0);
  const double h = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile_in_place(std::span<double> xs, double p) noexcept {
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs[0];
  p = std::clamp(p, 0.0, 100.0);
  const double h = (p / 100.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = h - static_cast<double>(lo);
  // Select the lo-th order statistic, then the (lo+1)-th as the minimum of
  // the partitioned tail — the exact elements a full sort would place
  // there, so the interpolation below matches percentile_sorted bit for
  // bit while costing O(n) instead of O(n log n). At integral ranks
  // (frac == 0 — every odd-length median, p = 0/100) the upper element
  // carries zero weight, so the tail scan is skipped entirely.
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), mid, xs.end());
  const double x_lo = *mid;
  const double x_hi =
      frac > 0.0 && hi > lo ? *std::min_element(mid + 1, xs.end()) : x_lo;
  return x_lo + frac * (x_hi - x_lo);
}

double percentile(std::span<const double> xs, double p) {
  // NaN breaks the strict weak ordering nth_element relies on, which would
  // make the selected order statistics garbage — propagate instead.
  if (has_nan(xs)) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v(xs.begin(), xs.end());
  return percentile_in_place(v, p);
}

double mad(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  if (has_nan(xs)) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v(xs.begin(), xs.end());
  const double med = percentile_in_place(v, 50.0);
  for (auto& x : v) x = std::abs(x - med);
  // 1.4826 makes MAD a consistent estimator of sigma under normality.
  return 1.4826 * percentile_in_place(v, 50.0);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  if (has_nan(xs)) {
    // Order statistics are undefined once sorting is (NaN breaks the
    // comparator); make every moment NaN rather than returning a mixture
    // of garbage order stats and NaN means.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    s.mean = s.stddev = s.cv = s.min = s.max = nan;
    s.median = s.p25 = s.p75 = s.p99 = s.iqr = s.mad = nan;
    s.skewness = s.kurtosis = nan;
    return s;
  }

  OnlineStats acc;
  for (double x : xs) acc.add(x);
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.cv = acc.cv();
  s.min = acc.min();
  s.max = acc.max();

  const auto sorted = sorted_copy(xs);
  s.median = percentile_sorted(sorted, 50.0);
  s.p25 = percentile_sorted(sorted, 25.0);
  s.p75 = percentile_sorted(sorted, 75.0);
  s.p99 = percentile_sorted(sorted, 99.0);
  s.iqr = s.p75 - s.p25;
  s.mad = mad(xs);

  if (s.n >= 3 && s.stddev > 0.0) {
    double m3 = 0.0;
    double m4 = 0.0;
    for (double x : xs) {
      const double d = (x - s.mean) / s.stddev;
      m3 += d * d * d;
      m4 += d * d * d * d;
    }
    const double n = static_cast<double>(s.n);
    s.skewness = m3 / n;
    if (s.n >= 4) s.kurtosis = m4 / n - 3.0;
  }
  return s;
}

}  // namespace omv::stats
