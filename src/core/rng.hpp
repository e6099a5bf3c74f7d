#pragma once
// Deterministic random-number streams for omnivar.
//
// Every stochastic component in the library (bootstrap resampling, simulator
// noise sources, frequency wander) draws from an independently seeded
// SplitMix64 stream so experiments are exactly reproducible: the same
// (experiment, run, source) triple always yields the same numbers regardless
// of evaluation order elsewhere.

#include <cmath>
#include <cstdint>
#include <numbers>

namespace omv {

/// SplitMix64 generator (Steele, Lea, Flood 2014). Passes BigCrush for the
/// stream lengths used here, is trivially seedable, and allows cheap
/// derivation of independent sub-streams via `fork`.
class Rng {
 public:
  /// Seeds the stream. Distinct seeds yield (for our purposes) independent
  /// streams.
  explicit constexpr Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept
      : state_(seed) {}

  /// Next raw 64-bit value.
  constexpr std::uint64_t next_u64() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [0, n). n must be > 0. Uses rejection-free
  /// multiply-shift (Lemire); bias is negligible for n << 2^64.
  constexpr std::uint64_t next_below(std::uint64_t n) noexcept {
    // 128-bit multiply-high.
    const auto x = next_u64();
    const auto hi = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * n) >> 64);
    return hi;
  }

  /// Exponentially distributed value with the given rate (mean = 1/rate).
  double exponential(double rate) noexcept {
    // Guard against log(0).
    double u = next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return -std::log(u) / rate;
  }

  /// Standard normal via Box–Muller (the spare value is cached).
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u1 = next_double();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    spare_ = r * std::sin(theta);
    have_spare_ = true;
    return r * std::cos(theta);
  }

  /// Normal with mean mu and standard deviation sigma.
  double normal(double mu, double sigma) noexcept {
    return mu + sigma * normal();
  }

  /// Lognormal: exp(N(mu_log, sigma_log)).
  double lognormal(double mu_log, double sigma_log) noexcept {
    return std::exp(normal(mu_log, sigma_log));
  }

  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed; used for
  /// rare long OS-noise events).
  double pareto(double x_m, double alpha) noexcept {
    double u = next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Bernoulli trial with probability p.
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Derives an independent stream keyed by `salt`. The parent stream is not
  /// advanced, so forks are order-independent.
  [[nodiscard]] constexpr Rng fork(std::uint64_t salt) const noexcept {
    // Mix the salt through one SplitMix round against the current state.
    std::uint64_t z = state_ + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

 private:
  std::uint64_t state_;
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace omv
