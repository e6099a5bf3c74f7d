// Unit tests for core/outliers.

#include "core/outliers.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace omv::stats {
namespace {

std::vector<double> base_sample() {
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) v.push_back(100.0 + (i % 10));
  return v;
}

TEST(TukeyOutliers, CleanSampleHasNone) {
  const auto r = tukey_outliers(base_sample());
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.tail, Tail::none);
}

TEST(TukeyOutliers, DetectsHighTail) {
  auto v = base_sample();
  v.push_back(500.0);
  const auto r = tukey_outliers(v);
  EXPECT_EQ(r.count(), 1u);
  EXPECT_EQ(r.n_high, 1u);
  EXPECT_EQ(r.tail, Tail::high);
  EXPECT_EQ(r.indices[0], v.size() - 1);
}

TEST(TukeyOutliers, DetectsLowTail) {
  auto v = base_sample();
  v.push_back(1.0);
  const auto r = tukey_outliers(v);
  EXPECT_EQ(r.n_low, 1u);
  EXPECT_EQ(r.tail, Tail::low);
}

TEST(TukeyOutliers, BothTails) {
  auto v = base_sample();
  v.push_back(500.0);
  v.push_back(-500.0);
  EXPECT_EQ(tukey_outliers(v).tail, Tail::both);
}

TEST(TukeyOutliers, StricterKFlagsFewer) {
  auto v = base_sample();
  v.push_back(130.0);
  v.push_back(500.0);
  const auto loose = tukey_outliers(v, 1.5);
  const auto strict = tukey_outliers(v, 3.0);
  EXPECT_GE(loose.count(), strict.count());
}

TEST(TukeyOutliers, TinySampleReturnsEmpty) {
  const std::vector<double> v{1.0, 2.0, 100.0};
  EXPECT_EQ(tukey_outliers(v).count(), 0u);
}

TEST(OutlierReport, FractionHelper) {
  OutlierReport r;
  r.indices = {1, 2};
  EXPECT_DOUBLE_EQ(r.fraction(10), 0.2);
  EXPECT_DOUBLE_EQ(r.fraction(0), 0.0);
}

TEST(TailName, AllValuesNamed) {
  EXPECT_STREQ(tail_name(Tail::none), "none");
  EXPECT_STREQ(tail_name(Tail::high), "high");
  EXPECT_STREQ(tail_name(Tail::low), "low");
  EXPECT_STREQ(tail_name(Tail::both), "both");
}

}  // namespace
}  // namespace omv::stats
