// Unit tests for core/descriptive: streaming stats, percentiles, MAD,
// geometric mean, batch summaries.

#include "core/descriptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace omv::stats {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(OnlineStats, EmptyExtremaAreInfinite) {
  OnlineStats s;
  EXPECT_EQ(s.min(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.max(), -std::numeric_limits<double>::infinity());
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(OnlineStats, CvIsStdOverMean) {
  OnlineStats s;
  for (double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_NEAR(s.cv(), s.stddev() / 2.0, 1e-15);
}

TEST(OnlineStats, CvZeroMeanGuard) {
  OnlineStats s;
  s.add(-1.0);
  s.add(1.0);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(OnlineStats, MinMaxTracking) {
  OnlineStats s;
  for (double x : {3.0, -2.0, 10.0, 7.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(OnlineStats, NumericallyStableNearConstant) {
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(1e9 + (i % 2) * 1e-3);
  EXPECT_NEAR(s.variance(), 0.25e-6, 1e-9);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 7.0);
}

TEST(Percentile, MedianEvenCountInterpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Percentile, MedianOddCount) {
  const std::vector<double> v{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);
}

TEST(Percentile, QuartilesType7) {
  // numpy.percentile([1..5], 25) == 2.0 (linear / type-7).
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 75.0), 4.0);
}

TEST(Percentile, ClampsOutOfRangeP) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 150.0), 3.0);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Mad, ConstantSampleIsZero) {
  const std::vector<double> v{4.0, 4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(mad(v), 0.0);
}

TEST(Mad, KnownValue) {
  // median = 2, abs devs = {1,0,1} -> MAD = 1 * 1.4826.
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_NEAR(mad(v), 1.4826, 1e-12);
}

TEST(Mad, RobustToOneOutlier) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const double base = mad(v);
  v.back() = 5000.0;
  EXPECT_NEAR(mad(v), base, 1.5);  // still the same order of magnitude
}

TEST(Summarize, EmptySample) {
  const auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.norm_min(), 0.0);
  EXPECT_EQ(s.norm_max(), 0.0);
}

TEST(Summarize, BasicFields) {
  const std::vector<double> v{2.0, 4.0, 6.0, 8.0};
  const auto s = summarize(v);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.iqr, s.p75 - s.p25);
}

TEST(Summarize, NormalizedMinMax) {
  const std::vector<double> v{8.0, 10.0, 12.0};
  const auto s = summarize(v);
  EXPECT_NEAR(s.norm_min(), 0.8, 1e-12);
  EXPECT_NEAR(s.norm_max(), 1.2, 1e-12);
}

TEST(Summarize, SymmetricSampleHasNearZeroSkew) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto s = summarize(v);
  EXPECT_NEAR(s.skewness, 0.0, 1e-12);
}

TEST(Summarize, RightSkewedSamplePositiveSkew) {
  const std::vector<double> v{1.0, 1.0, 1.0, 1.0, 100.0};
  EXPECT_GT(summarize(v).skewness, 1.0);
}

TEST(Summarize, ConstantSampleZeroCv) {
  const std::vector<double> v{3.0, 3.0, 3.0, 3.0};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.cv, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.skewness, 0.0);
}

TEST(SortedCopy, SortsAscending) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  const auto s = sorted_copy(v);
  EXPECT_EQ(s, (std::vector<double>{1.0, 2.0, 3.0}));
}

// Property sweep: percentile_sorted is monotone in p for random-ish samples.
class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, MonotoneInP) {
  const int n = GetParam();
  std::vector<double> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(std::fmod(static_cast<double>(i) * 7919.0, 97.0));
  }
  const auto sorted = sorted_copy(v);
  double prev = percentile_sorted(sorted, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = percentile_sorted(sorted, p);
    EXPECT_GE(cur, prev) << "p=" << p << " n=" << n;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 5, 10, 33, 100, 1000));

// NaN robustness: NaN breaks std::sort's strict weak ordering, so every
// order statistic of a poisoned sample must propagate NaN instead of
// returning sort garbage.

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(NanRobustness, HasNanDetects) {
  EXPECT_FALSE(has_nan({}));
  EXPECT_FALSE(has_nan(std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(has_nan(std::vector<double>{1.0, kNan, 2.0}));
}

TEST(NanRobustness, PercentilePropagatesNan) {
  const std::vector<double> v{3.0, kNan, 1.0, 2.0};
  EXPECT_TRUE(std::isnan(percentile(v, 50.0)));
  EXPECT_TRUE(std::isnan(percentile(v, 0.0)));
}

TEST(NanRobustness, MadPropagatesNan) {
  const std::vector<double> v{1.0, 2.0, kNan};
  EXPECT_TRUE(std::isnan(mad(v)));
}

TEST(NanRobustness, SummarizePoisonsEveryMoment) {
  const std::vector<double> v{10.0, kNan, 30.0};
  const auto s = summarize(v);
  EXPECT_EQ(s.n, 3u);
  EXPECT_TRUE(std::isnan(s.mean));
  EXPECT_TRUE(std::isnan(s.stddev));
  EXPECT_TRUE(std::isnan(s.cv));
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
  EXPECT_TRUE(std::isnan(s.median));
  EXPECT_TRUE(std::isnan(s.p99));
  EXPECT_TRUE(std::isnan(s.iqr));
  EXPECT_TRUE(std::isnan(s.mad));
  EXPECT_TRUE(std::isnan(s.skewness));
  EXPECT_TRUE(std::isnan(s.kurtosis));
}

TEST(NanRobustness, OnlineStatsExtremaPropagateNan) {
  OnlineStats s;
  s.add(5.0);
  s.add(kNan);
  s.add(1.0);  // NaN must stick even when later samples are clean
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_EQ(s.count(), 3u);
}

TEST(PercentileInPlace, BitIdenticalToSortedPath) {
  // percentile() now selects with nth_element instead of sorting; the
  // selected elements are the exact order statistics, so the interpolated
  // result must match the sorted path bit for bit — including fractional
  // ranks, duplicates, and negative values.
  std::vector<double> xs = {5.0,  -3.25, 7.5, 7.5, 0.0,  12.125,
                            -3.25, 2.0,  9.0, 1.0, 42.0, -17.5};
  for (double p : {0.0, 1.0, 10.0, 25.0, 33.3, 50.0, 66.7, 75.0, 90.0,
                   99.0, 100.0}) {
    const auto sorted = sorted_copy(xs);
    std::vector<double> scratch = xs;
    EXPECT_EQ(percentile_in_place(scratch, p), percentile_sorted(sorted, p))
        << "p=" << p;
    EXPECT_EQ(percentile(xs, p), percentile_sorted(sorted, p)) << "p=" << p;
  }
}

TEST(PercentileInPlace, DegenerateSizes) {
  std::vector<double> empty;
  EXPECT_EQ(percentile_in_place(empty, 50.0), 0.0);
  std::vector<double> one = {3.5};
  EXPECT_EQ(percentile_in_place(one, 50.0), 3.5);
  std::vector<double> two = {4.0, 2.0};
  EXPECT_EQ(percentile_in_place(two, 50.0), 3.0);
  EXPECT_EQ(percentile_in_place(two, 100.0), 4.0);
}

TEST(PercentileInPlace, ComposesAfterPartialReordering) {
  // bootstrap_ci selects two bounds from the same buffer; the second
  // selection must still find exact order statistics on the partially
  // reordered data.
  std::vector<double> xs;
  for (int i = 0; i < 501; ++i) xs.push_back(std::cos(i * 0.7) * 100.0);
  const auto sorted = sorted_copy(xs);
  std::vector<double> scratch = xs;
  const double lo = percentile_in_place(scratch, 2.5);
  const double hi = percentile_in_place(scratch, 97.5);
  EXPECT_EQ(lo, percentile_sorted(sorted, 2.5));
  EXPECT_EQ(hi, percentile_sorted(sorted, 97.5));
}

}  // namespace
}  // namespace omv::stats
