#pragma once
// Frequency logging + trace analysis.
//
// Mirrors the paper's methodology: a logger samples every core's frequency
// at a fixed interval while the benchmark runs (the paper used a Python
// script on a separate core reading sysfs). Here the logger is sample_sim,
// which samples the simulator's frequency model along simulated time. The
// trace analysis quantifies the paper's "brown / grey regions": the
// fraction of samples below a threshold of fmax.

#include <cstddef>
#include <vector>

#include "sim/freq.hpp"

namespace omv::freqlog {

/// One sample: time, core, frequency.
struct FreqSample {
  double time = 0.0;
  std::size_t core = 0;
  double ghz = 0.0;
};

/// A recorded frequency trace.
class FreqTrace {
 public:
  void add(FreqSample s) { samples_.push_back(s); }
  void append(const FreqTrace& other);
  [[nodiscard]] const std::vector<FreqSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

  /// Fraction of samples with ghz < threshold_fraction * fmax_ghz —
  /// the "variation region" metric for Figs. 6b/6d and 7b/7d.
  [[nodiscard]] double fraction_below(double fmax_ghz,
                                      double threshold_fraction) const;

  /// Per-core-fmax variant for heterogeneous machines: a sample of core c
  /// is "below" when ghz < threshold_fraction * fmax_per_core[c] (cores
  /// beyond the vector are never below). On uniform machines this is
  /// bit-identical to the scalar overload — an E-core cruising at its own
  /// fmax must not count as a dip just because P-cores clock higher.
  [[nodiscard]] double fraction_below(
      const std::vector<double>& fmax_per_core,
      double threshold_fraction) const;

  /// Minimum / mean / maximum sampled frequency (GHz); zeros when empty.
  struct Extremes {
    double min = 0.0;
    double mean = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] Extremes extremes() const;

  /// Number of maximal contiguous episodes (in sample order per core) with
  /// ghz < threshold_fraction * fmax.
  [[nodiscard]] std::size_t episode_count(double fmax_ghz,
                                          double threshold_fraction) const;

  /// Per-core-fmax variant (see fraction_below).
  [[nodiscard]] std::size_t episode_count(
      const std::vector<double>& fmax_per_core,
      double threshold_fraction) const;

 private:
  std::vector<FreqSample> samples_;
};

/// Samples cores 0..n_cores-1 of `model` (FreqModel::sample_ghz) at the
/// simulated times t0, t0 + interval, ... below t1, every core per time
/// point. Deterministic: no threads, no wall clock.
[[nodiscard]] FreqTrace sample_sim(sim::FreqModel& model, std::size_t n_cores,
                                   double t0, double t1, double interval);

}  // namespace omv::freqlog
