#include "core/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "core/descriptive.hpp"

namespace omv::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi) {
  if (bins == 0) bins = 1;
  if (hi_ <= lo_) hi_ = lo_ + 1.0;
  width_ = (hi_ - lo_) / static_cast<double>(bins);
  counts_.assign(bins, 0);
}

Histogram Histogram::from_data(std::span<const double> xs, std::size_t bins) {
  double lo = 0.0;
  double hi = 1.0;
  if (!xs.empty()) {
    lo = *std::min_element(xs.begin(), xs.end());
    hi = *std::max_element(xs.begin(), xs.end());
    if (hi == lo) hi = lo + 1.0;
  }
  Histogram h(lo, hi, bins);
  h.add_all(xs);
  return h;
}

Histogram Histogram::auto_binned(std::span<const double> xs) {
  std::size_t bins = freedman_diaconis_bins(xs);
  if (bins == 0) bins = sturges_bins(xs.size());
  bins = std::clamp<std::size_t>(bins, 1, 512);
  return from_data(xs, bins);
}

void Histogram::add(double x) noexcept {
  double pos = (x - lo_) / width_;
  auto bin = pos <= 0.0 ? 0
                        : std::min(static_cast<std::size_t>(pos),
                                   counts_.size() - 1);
  ++counts_[bin];
  ++total_;
}

void Histogram::add_all(std::span<const double> xs) noexcept {
  for (double x : xs) add(x);
}

std::vector<double> Histogram::smoothed(std::size_t radius) const {
  std::vector<double> out(counts_.size(), 0.0);
  const auto n = static_cast<std::ptrdiff_t>(counts_.size());
  const auto r = static_cast<std::ptrdiff_t>(radius);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double sum = 0.0;
    std::ptrdiff_t cnt = 0;
    for (std::ptrdiff_t j = std::max<std::ptrdiff_t>(0, i - r);
         j <= std::min(n - 1, i + r); ++j) {
      sum += static_cast<double>(counts_[static_cast<std::size_t>(j)]);
      ++cnt;
    }
    out[static_cast<std::size_t>(i)] = sum / static_cast<double>(cnt);
  }
  return out;
}

std::size_t sturges_bins(std::size_t n) noexcept {
  if (n < 2) return 1;
  return static_cast<std::size_t>(
             std::ceil(std::log2(static_cast<double>(n)))) +
         1;
}

std::size_t freedman_diaconis_bins(std::span<const double> xs) {
  if (xs.size() < 4) return 0;
  const auto sorted = sorted_copy(xs);
  const double iqr =
      percentile_sorted(sorted, 75.0) - percentile_sorted(sorted, 25.0);
  if (iqr <= 0.0) return 0;
  const double width =
      2.0 * iqr / std::cbrt(static_cast<double>(xs.size()));
  const double range = sorted.back() - sorted.front();
  if (width <= 0.0 || range <= 0.0) return 0;
  return static_cast<std::size_t>(std::ceil(range / width));
}

}  // namespace omv::stats
