// Unit tests for core/histogram.

#include "core/histogram.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace omv::stats {
namespace {

TEST(Histogram, CountsLandInRightBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(9.5);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
}

TEST(Histogram, ZeroBinsBecomesOne) {
  Histogram h(0.0, 1.0, 0);
  EXPECT_EQ(h.bin_count(), 1u);
}

TEST(Histogram, DegenerateRangeWidens) {
  Histogram h(5.0, 5.0, 4);
  h.add(5.0);
  EXPECT_EQ(h.total(), 1u);
}

TEST(Histogram, FromDataSpansRange) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const auto h = Histogram::from_data(v, 3);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.lo(), 1.0);
  EXPECT_DOUBLE_EQ(h.hi(), 4.0);
}

TEST(Histogram, AutoBinnedNonEmpty) {
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(static_cast<double>(i % 17));
  const auto h = Histogram::auto_binned(v);
  EXPECT_GE(h.bin_count(), 1u);
  EXPECT_EQ(h.total(), 200u);
}

TEST(Histogram, SmoothedPreservesMass) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(5.0);
  const auto sm = h.smoothed(0);
  EXPECT_DOUBLE_EQ(sm[5], 100.0);
}

TEST(Histogram, SmoothedSpreadsPeaks) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(5.0);
  const auto sm = h.smoothed(1);
  // Mass leaks into the adjacent bins but not beyond the radius.
  EXPECT_GT(sm[4], 0.0);
  EXPECT_GT(sm[6], 0.0);
  EXPECT_DOUBLE_EQ(sm[3], 0.0);
  EXPECT_DOUBLE_EQ(sm[7], 0.0);
}

TEST(SturgesBins, KnownValues) {
  EXPECT_EQ(sturges_bins(1), 1u);
  EXPECT_EQ(sturges_bins(100), 8u);   // ceil(log2(100)) + 1 = 7 + 1
  EXPECT_EQ(sturges_bins(1024), 11u);
}

TEST(FreedmanDiaconis, ZeroForTinySamples) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_EQ(freedman_diaconis_bins(v), 0u);
}

TEST(FreedmanDiaconis, ZeroForZeroIqr) {
  const std::vector<double> v{5.0, 5.0, 5.0, 5.0, 5.0};
  EXPECT_EQ(freedman_diaconis_bins(v), 0u);
}

TEST(FreedmanDiaconis, ReasonableForUniform) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(static_cast<double>(i));
  const auto bins = freedman_diaconis_bins(v);
  EXPECT_GT(bins, 3u);
  EXPECT_LT(bins, 100u);
}

}  // namespace
}  // namespace omv::stats
