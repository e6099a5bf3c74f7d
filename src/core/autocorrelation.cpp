#include "core/autocorrelation.hpp"

#include <algorithm>
#include <cmath>

namespace omv::stats {

std::vector<double> autocorrelation(std::span<const double> xs,
                                    std::size_t max_lag) {
  const std::size_t n = xs.size();
  if (n < 3 || max_lag == 0) return {};
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(n);
  double denom = 0.0;
  for (double x : xs) denom += (x - mean) * (x - mean);
  // NaN input makes denom NaN, and `NaN <= 0.0` is false — without the
  // isnan check a poisoned series would produce an all-NaN correlogram
  // that downstream peak scans silently read as "no periodicity". Treat it
  // like the other degenerate inputs: no correlogram at all.
  if (std::isnan(denom) || denom <= 0.0) return {};

  max_lag = std::min(max_lag, n - 1);
  std::vector<double> r;
  r.reserve(max_lag);
  for (std::size_t k = 1; k <= max_lag; ++k) {
    double num = 0.0;
    for (std::size_t i = 0; i + k < n; ++i) {
      num += (xs[i] - mean) * (xs[i + k] - mean);
    }
    r.push_back(num / denom);
  }
  return r;
}

Periodicity dominant_period(std::span<const double> xs, std::size_t max_lag) {
  Periodicity p;
  const auto r = autocorrelation(xs, max_lag);
  if (r.size() < 3) return p;
  const double band = 2.0 / std::sqrt(static_cast<double>(xs.size()));
  // Scan lags >= 2 (index 1) for the strongest local maximum.
  for (std::size_t i = 1; i < r.size(); ++i) {
    const bool left_ok = r[i] > r[i - 1];
    const bool right_ok = i + 1 >= r.size() || r[i] >= r[i + 1];
    if (left_ok && right_ok && r[i] > p.correlation) {
      p.lag = i + 1;  // r[0] is lag 1
      p.correlation = r[i];
    }
  }
  p.significant = p.lag != 0 && p.correlation > band;
  if (!p.significant) {
    p.lag = 0;
    p.correlation = p.lag ? p.correlation : 0.0;
  }
  return p;
}

}  // namespace omv::stats
