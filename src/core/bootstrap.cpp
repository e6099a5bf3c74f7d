#include "core/bootstrap.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/descriptive.hpp"
#include "core/rng.hpp"

namespace omv::stats {

ConfidenceInterval bootstrap_ci(std::span<const double> xs,
                                const Statistic& stat, std::size_t resamples,
                                double level, std::uint64_t seed) {
  ConfidenceInterval ci;
  ci.level = level;
  if (xs.empty()) return ci;
  if (has_nan(xs)) {
    // Resampled statistics of a NaN-poisoned sample cannot be ordered, so
    // the percentile bounds would be garbage — propagate NaN throughout.
    ci.point = ci.lo = ci.hi = std::numeric_limits<double>::quiet_NaN();
    return ci;
  }
  ci.point = stat(xs);
  if (xs.size() == 1 || resamples == 0) {
    ci.lo = ci.hi = ci.point;
    return ci;
  }

  Rng rng(seed);
  std::vector<double> resample(xs.size());
  std::vector<double> stats;
  stats.reserve(resamples);
  for (std::size_t r = 0; r < resamples; ++r) {
    for (auto& v : resample) v = xs[rng.next_below(xs.size())];
    stats.push_back(stat(resample));
  }
  // Only the two interval bounds are needed — select them instead of
  // sorting all R resampled statistics (order statistics are invariant
  // under the partial reorderings selection leaves behind, so the two
  // calls compose and the bounds are bit-identical to the sorted path).
  const double alpha = (1.0 - level) / 2.0;
  ci.lo = percentile_in_place(stats, alpha * 100.0);
  ci.hi = percentile_in_place(stats, (1.0 - alpha) * 100.0);
  return ci;
}

ConfidenceInterval bootstrap_mean_ci(std::span<const double> xs,
                                     std::size_t resamples, double level,
                                     std::uint64_t seed) {
  return bootstrap_ci(
      xs, [](std::span<const double> s) { return summarize(s).mean; },
      resamples, level, seed);
}

}  // namespace omv::stats
