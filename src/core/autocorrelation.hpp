#pragma once
// Autocorrelation analysis of repetition-time series.
//
// Periodic noise sources (timer ticks, housekeeping daemons with fixed
// wakeup intervals) leave a periodic imprint on consecutive repetition
// times. The paper's future work asks to "pinpoint the exact sources of OS
// noise"; lag autocorrelation is the first tool for that: a significant
// peak at lag k means a disturbance recurring every k repetitions.

#include <cstddef>
#include <span>
#include <vector>

namespace omv::stats {

/// Sample autocorrelation at lags 1..max_lag (lag 0 omitted; it is 1).
/// Returns an empty vector when the series is shorter than 3, constant, or
/// contains NaN (a poisoned series has no meaningful correlogram;
/// dominant_period below then reports "no structure" instead of garbage).
[[nodiscard]] std::vector<double> autocorrelation(std::span<const double> xs,
                                                  std::size_t max_lag);

/// A detected periodic component.
struct Periodicity {
  std::size_t lag = 0;     ///< repetition period of the disturbance.
  double correlation = 0;  ///< autocorrelation at that lag.
  bool significant = false;  ///< |r| above the white-noise band 2/sqrt(n).
};

/// Strongest autocorrelation peak in lags [2, max_lag]; lag 0 result when
/// nothing is significant. A peak requires r(lag) to be a local maximum.
[[nodiscard]] Periodicity dominant_period(std::span<const double> xs,
                                          std::size_t max_lag = 50);

}  // namespace omv::stats
