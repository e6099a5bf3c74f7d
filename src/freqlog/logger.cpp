#include "freqlog/logger.hpp"

#include <algorithm>
#include <map>

namespace omv::freqlog {

void FreqTrace::append(const FreqTrace& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

double FreqTrace::fraction_below(double fmax_ghz,
                                 double threshold_fraction) const {
  if (samples_.empty()) return 0.0;
  const double thr = fmax_ghz * threshold_fraction;
  std::size_t below = 0;
  for (const auto& s : samples_) {
    if (s.ghz < thr) ++below;
  }
  return static_cast<double>(below) / static_cast<double>(samples_.size());
}

double FreqTrace::fraction_below(const std::vector<double>& fmax_per_core,
                                 double threshold_fraction) const {
  if (samples_.empty()) return 0.0;
  std::size_t below = 0;
  for (const auto& s : samples_) {
    if (s.core < fmax_per_core.size() &&
        s.ghz < fmax_per_core[s.core] * threshold_fraction) {
      ++below;
    }
  }
  return static_cast<double>(below) / static_cast<double>(samples_.size());
}

FreqTrace::Extremes FreqTrace::extremes() const {
  Extremes e;
  if (samples_.empty()) return e;
  e.min = samples_[0].ghz;
  e.max = samples_[0].ghz;
  double sum = 0.0;
  for (const auto& s : samples_) {
    e.min = std::min(e.min, s.ghz);
    e.max = std::max(e.max, s.ghz);
    sum += s.ghz;
  }
  e.mean = sum / static_cast<double>(samples_.size());
  return e;
}

std::size_t FreqTrace::episode_count(double fmax_ghz,
                                     double threshold_fraction) const {
  const double thr = fmax_ghz * threshold_fraction;
  // Per-core pass in recorded order.
  std::map<std::size_t, bool> in_episode;
  std::size_t episodes = 0;
  for (const auto& s : samples_) {
    bool& active = in_episode[s.core];
    if (s.ghz < thr) {
      if (!active) {
        active = true;
        ++episodes;
      }
    } else {
      active = false;
    }
  }
  return episodes;
}

std::size_t FreqTrace::episode_count(
    const std::vector<double>& fmax_per_core,
    double threshold_fraction) const {
  std::map<std::size_t, bool> in_episode;
  std::size_t episodes = 0;
  for (const auto& s : samples_) {
    bool& active = in_episode[s.core];
    const bool dip = s.core < fmax_per_core.size() &&
                     s.ghz < fmax_per_core[s.core] * threshold_fraction;
    if (dip) {
      if (!active) {
        active = true;
        ++episodes;
      }
    } else {
      active = false;
    }
  }
  return episodes;
}

FreqTrace sample_sim(sim::FreqModel& model, std::size_t n_cores, double t0,
                     double t1, double interval) {
  FreqTrace trace;
  if (interval <= 0.0 || t1 <= t0) return trace;
  // Integer stepping avoids floating-point drift deciding the sample count.
  const auto steps = static_cast<std::size_t>((t1 - t0) / interval);
  for (std::size_t i = 0; i < steps; ++i) {
    const double t = t0 + static_cast<double>(i) * interval;
    for (std::size_t c = 0; c < n_cores; ++c) {
      trace.add({t, c, model.sample_ghz(c, t)});
    }
  }
  return trace;
}

}  // namespace omv::freqlog
