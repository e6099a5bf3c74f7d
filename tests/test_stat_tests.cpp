// Unit tests for core/stat_tests: Welch t, Mann-Whitney U, KS,
// Brown-Forsythe, Hedges' g, and the distribution helpers.

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

TEST(TTwoSidedP, LargeDfMatchesNormal) {
  EXPECT_NEAR(t_two_sided_p(1.96, 1000.0), 0.05, 5e-3);
  EXPECT_NEAR(t_two_sided_p(0.0, 1000.0), 1.0, 1e-9);
}

TEST(TTwoSidedP, SmallDfHeavierTail) {
  // At 5 df, |t| = 1.96 is less significant than under the normal.
  EXPECT_GT(t_two_sided_p(1.96, 5.0), 0.05);
}

TEST(FUpperP, Monotone) {
  EXPECT_GT(f_upper_p(1.0, 5.0, 50.0), f_upper_p(4.0, 5.0, 50.0));
  EXPECT_NEAR(f_upper_p(0.0, 5.0, 50.0), 1.0, 1e-12);
}

TEST(WelchT, IdenticalSamplesNotSignificant) {
  const auto a = normal_sample(10.0, 1.0, 100, 1);
  const auto r = welch_t_test(a, a);
  EXPECT_GT(r.p_value, 0.9);
  EXPECT_FALSE(r.significant);
}

TEST(WelchT, ClearlyShiftedMeansSignificant) {
  const auto a = normal_sample(10.0, 1.0, 100, 1);
  const auto b = normal_sample(13.0, 1.0, 100, 2);
  const auto r = welch_t_test(a, b);
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_TRUE(r.significant);
}

TEST(WelchT, SameMeanDifferentNoiseNotSignificant) {
  const auto a = normal_sample(10.0, 1.0, 200, 3);
  const auto b = normal_sample(10.0, 3.0, 200, 4);
  EXPECT_GT(welch_t_test(a, b).p_value, 0.01);
}

TEST(WelchT, TinySamplesGuarded) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{2.0, 3.0};
  const auto r = welch_t_test(a, b);
  EXPECT_EQ(r.p_value, 1.0);
}

TEST(WelchT, ZeroVarianceEqualMeans) {
  const std::vector<double> a{5.0, 5.0, 5.0};
  const auto r = welch_t_test(a, a);
  EXPECT_EQ(r.p_value, 1.0);
}

TEST(MannWhitney, ShiftDetected) {
  const auto a = normal_sample(0.0, 1.0, 80, 5);
  const auto b = normal_sample(1.5, 1.0, 80, 6);
  EXPECT_LT(mann_whitney_u(a, b).p_value, 1e-4);
}

TEST(MannWhitney, IdenticalNotSignificant) {
  const auto a = normal_sample(0.0, 1.0, 80, 7);
  EXPECT_GT(mann_whitney_u(a, a).p_value, 0.9);
}

TEST(MannWhitney, RobustToOutliers) {
  // Heavy contamination moves the mean but barely the ranks.
  auto a = normal_sample(0.0, 1.0, 100, 8);
  auto b = normal_sample(0.0, 1.0, 100, 9);
  b[0] = 1e6;
  EXPECT_GT(mann_whitney_u(a, b).p_value, 0.05);
}

TEST(MannWhitney, HandlesTies) {
  const std::vector<double> a{1.0, 1.0, 2.0, 2.0};
  const std::vector<double> b{1.0, 2.0, 2.0, 2.0};
  const auto r = mann_whitney_u(a, b);
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

TEST(KsTest, SameDistributionHighP) {
  const auto a = normal_sample(0.0, 1.0, 150, 10);
  const auto b = normal_sample(0.0, 1.0, 150, 11);
  EXPECT_GT(ks_test(a, b).p_value, 0.05);
}

TEST(KsTest, DifferentSpreadDetected) {
  // Same mean/median but different shape: KS catches it, t-test cannot.
  const auto a = normal_sample(0.0, 1.0, 300, 12);
  const auto b = normal_sample(0.0, 4.0, 300, 13);
  EXPECT_LT(ks_test(a, b).p_value, 0.01);
}

TEST(KsTest, StatisticInUnitRange) {
  const auto a = normal_sample(0.0, 1.0, 50, 14);
  const auto b = normal_sample(5.0, 1.0, 50, 15);
  const auto r = ks_test(a, b);
  EXPECT_GT(r.statistic, 0.5);
  EXPECT_LE(r.statistic, 1.0);
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

TEST(HedgesG, ZeroForIdentical) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(hedges_g(a, a), 0.0, 1e-12);
}

TEST(HedgesG, SignFollowsDirection) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{5.0, 6.0, 7.0, 8.0};
  EXPECT_GT(hedges_g(a, b), 1.0);   // b slower
  EXPECT_LT(hedges_g(b, a), -1.0);  // reversed
}

TEST(HedgesG, DegenerateInputs) {
  const std::vector<double> one{1.0};
  const std::vector<double> two{1.0, 2.0};
  EXPECT_EQ(hedges_g(one, two), 0.0);
  const std::vector<double> constant{3.0, 3.0, 3.0};
  EXPECT_EQ(hedges_g(constant, constant), 0.0);
}

}  // namespace
}  // namespace omv::stats
