// Unit tests for core/stat_tests: Brown-Forsythe and the distribution
// helpers.

#include "core/stat_tests.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"

namespace omv::stats {
namespace {

std::vector<double> normal_sample(double mu, double sigma, int n,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  for (int i = 0; i < n; ++i) v.push_back(rng.normal(mu, sigma));
  return v;
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(FUpperP, Monotone) {
  EXPECT_GT(f_upper_p(1.0, 5.0, 50.0), f_upper_p(4.0, 5.0, 50.0));
  EXPECT_NEAR(f_upper_p(0.0, 5.0, 50.0), 1.0, 1e-12);
}

TEST(BrownForsythe, EqualVarianceNotSignificant) {
  const auto a = normal_sample(0.0, 2.0, 150, 16);
  const auto b = normal_sample(10.0, 2.0, 150, 17);  // mean shift only
  EXPECT_GT(brown_forsythe(a, b).p_value, 0.05);
}

TEST(BrownForsythe, UnequalVarianceDetected) {
  const auto a = normal_sample(0.0, 1.0, 150, 18);
  const auto b = normal_sample(0.0, 5.0, 150, 19);
  const auto r = brown_forsythe(a, b);
  EXPECT_LT(r.p_value, 1e-4);
  EXPECT_TRUE(r.significant);
}

TEST(BrownForsythe, PinnedVsUnpinnedShapedData) {
  // Mimics the paper's comparison: pinned = tight, unpinned = wild.
  Rng rng(20);
  std::vector<double> pinned;
  std::vector<double> unpinned;
  for (int i = 0; i < 100; ++i) {
    pinned.push_back(100.0 + rng.normal(0.0, 0.5));
    unpinned.push_back(100.0 + rng.normal(0.0, 0.5) +
                       (rng.bernoulli(0.2) ? rng.pareto(50.0, 1.5) : 0.0));
  }
  EXPECT_LT(brown_forsythe(pinned, unpinned).p_value, 0.01);
}

}  // namespace
}  // namespace omv::stats
