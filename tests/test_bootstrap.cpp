// Unit tests for core/bootstrap.

#include "core/bootstrap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/descriptive.hpp"

namespace omv::stats {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(10.0 + 0.1 * i);
  return v;
}

TEST(Bootstrap, EmptyInput) {
  const auto ci = bootstrap_mean_ci({});
  EXPECT_EQ(ci.point, 0.0);
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_EQ(ci.hi, 0.0);
}

TEST(Bootstrap, SingleElementCollapses) {
  const std::vector<double> v{4.0};
  const auto ci = bootstrap_mean_ci(v);
  EXPECT_DOUBLE_EQ(ci.point, 4.0);
  EXPECT_DOUBLE_EQ(ci.lo, 4.0);
  EXPECT_DOUBLE_EQ(ci.hi, 4.0);
}

TEST(Bootstrap, DeterministicGivenSeed) {
  const auto v = ramp(30);
  const auto a = bootstrap_mean_ci(v, 500, 0.95, 123);
  const auto b = bootstrap_mean_ci(v, 500, 0.95, 123);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(Bootstrap, DifferentSeedsDiffer) {
  const auto v = ramp(30);
  const auto a = bootstrap_mean_ci(v, 500, 0.95, 1);
  const auto b = bootstrap_mean_ci(v, 500, 0.95, 2);
  EXPECT_NE(a.lo, b.lo);
}

TEST(Bootstrap, IntervalBracketsPoint) {
  const auto v = ramp(50);
  const auto ci = bootstrap_mean_ci(v, 1000);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
}

TEST(Bootstrap, IntervalCoversTrueMeanForCleanData) {
  const auto v = ramp(100);
  const double true_mean = summarize(v).mean;
  const auto ci = bootstrap_mean_ci(v, 2000);
  EXPECT_LE(ci.lo, true_mean);
  EXPECT_GE(ci.hi, true_mean);
}

TEST(Bootstrap, WiderAtHigherConfidence) {
  const auto v = ramp(40);
  const auto c90 = bootstrap_mean_ci(v, 2000, 0.90, 7);
  const auto c99 = bootstrap_mean_ci(v, 2000, 0.99, 7);
  EXPECT_LE(c99.lo, c90.lo);
  EXPECT_GE(c99.hi, c90.hi);
}

TEST(Bootstrap, CustomStatistic) {
  const auto v = ramp(20);
  const auto ci = bootstrap_ci(
      v, [](std::span<const double> s) { return summarize(s).max; }, 300);
  EXPECT_DOUBLE_EQ(ci.point, summarize(v).max);
  EXPECT_LE(ci.hi, ci.point + 1e-12);  // max of resample <= sample max
}

TEST(Bootstrap, NanInputPropagatesToWholeInterval) {
  const std::vector<double> v{1.0, std::numeric_limits<double>::quiet_NaN(),
                              3.0};
  const auto ci = bootstrap_mean_ci(v, 200);
  EXPECT_TRUE(std::isnan(ci.point));
  EXPECT_TRUE(std::isnan(ci.lo));
  EXPECT_TRUE(std::isnan(ci.hi));
  EXPECT_DOUBLE_EQ(ci.level, 0.95);
}

TEST(Bootstrap, SingleElementCollapsesToPoint) {
  const std::vector<double> v{4.25};
  const auto ci = bootstrap_ci(
      v, [](std::span<const double> s) { return percentile(s, 50.0); }, 500);
  EXPECT_DOUBLE_EQ(ci.point, 4.25);
  EXPECT_DOUBLE_EQ(ci.lo, 4.25);
  EXPECT_DOUBLE_EQ(ci.hi, 4.25);
}

}  // namespace
}  // namespace omv::stats
