// Unit tests for core/autocorrelation: periodic-noise detection.

#include "core/autocorrelation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/rng.hpp"

namespace omv::stats {
namespace {

std::vector<double> periodic_series(std::size_t n, std::size_t period,
                                    double spike, double noise_sd,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double x = 100.0 + rng.normal(0.0, noise_sd);
    if (period && i % period == 0) x += spike;
    v.push_back(x);
  }
  return v;
}

TEST(Autocorrelation, DegenerateInputs) {
  EXPECT_TRUE(autocorrelation({}, 5).empty());
  const std::vector<double> two{1.0, 2.0};
  EXPECT_TRUE(autocorrelation(two, 5).empty());
  const std::vector<double> flat(10, 3.0);
  EXPECT_TRUE(autocorrelation(flat, 5).empty());
}

TEST(Autocorrelation, LagCappedBySeriesLength) {
  const std::vector<double> v{1.0, 2.0, 1.0, 2.0, 1.0};
  EXPECT_EQ(autocorrelation(v, 100).size(), 4u);
}

TEST(Autocorrelation, AlternatingSeriesNegativeLag1) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i % 2 ? 1.0 : -1.0);
  const auto r = autocorrelation(v, 4);
  EXPECT_LT(r[0], -0.8);  // lag 1 strongly negative
  EXPECT_GT(r[1], 0.8);   // lag 2 strongly positive
}

TEST(Autocorrelation, WhiteNoiseInsideBand) {
  Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 2000; ++i) v.push_back(rng.normal(0.0, 1.0));
  const auto r = autocorrelation(v, 20);
  const double band = 3.0 / std::sqrt(2000.0);
  int outside = 0;
  for (double x : r) {
    if (std::abs(x) > band) ++outside;
  }
  EXPECT_LE(outside, 2);
}

TEST(DominantPeriod, FindsInjectedPeriod) {
  const auto v = periodic_series(1000, 7, 25.0, 0.5, 1);
  const auto p = dominant_period(v, 30);
  EXPECT_TRUE(p.significant);
  EXPECT_EQ(p.lag, 7u);
  EXPECT_GT(p.correlation, 0.2);
}

TEST(DominantPeriod, NoFalsePositiveOnWhiteNoise) {
  Rng rng(2);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.normal(0.0, 1.0));
  const auto p = dominant_period(v, 30);
  EXPECT_FALSE(p.significant);
  EXPECT_EQ(p.lag, 0u);
}

TEST(DominantPeriod, LongerPeriodDetected) {
  const auto v = periodic_series(2000, 25, 30.0, 0.5, 3);
  const auto p = dominant_period(v, 60);
  EXPECT_TRUE(p.significant);
  EXPECT_EQ(p.lag, 25u);
}

TEST(Autocorrelation, NanInputYieldsNoCorrelogram) {
  // Regression: `NaN <= 0.0` is false, so a poisoned series used to
  // produce an all-NaN correlogram that peak scans read as "no
  // periodicity".
  std::vector<double> v;
  for (int i = 0; i < 32; ++i) v.push_back(i % 4);
  v[7] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(autocorrelation(v, 10).empty());
  const auto p = dominant_period(v, 10);
  EXPECT_FALSE(p.significant);
  EXPECT_EQ(p.lag, 0u);
}

TEST(Autocorrelation, TinySeriesYieldNoCorrelogram) {
  EXPECT_TRUE(autocorrelation(std::vector<double>{}, 5).empty());
  EXPECT_TRUE(autocorrelation(std::vector<double>{1.0}, 5).empty());
  EXPECT_TRUE(autocorrelation(std::vector<double>{1.0, 2.0}, 5).empty());
  EXPECT_TRUE(
      autocorrelation(std::vector<double>{1.0, 2.0, 3.0}, 0).empty());
}

}  // namespace
}  // namespace omv::stats
