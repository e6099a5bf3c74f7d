// Unit tests for core/run_matrix: the paper's 10x100 protocol container and
// its derived metrics.

#include "core/run_matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace omv {
namespace {

RunMatrix sample_matrix() {
  RunMatrix m;
  m.add_run({10.0, 12.0, 11.0});
  m.add_run({20.0, 22.0, 21.0});
  return m;
}

TEST(RunMatrix, RunsAndAccess) {
  const auto m = sample_matrix();
  EXPECT_EQ(m.runs(), 2u);
  EXPECT_EQ(m.run(0).size(), 3u);
  EXPECT_DOUBLE_EQ(m.run(1)[0], 20.0);
}

TEST(RunMatrix, RunMeans) {
  const auto m = sample_matrix();
  EXPECT_DOUBLE_EQ(m.run_mean(0), 11.0);
  EXPECT_DOUBLE_EQ(m.run_mean(1), 21.0);
  const auto means = m.run_means();
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[1], 21.0);
}

TEST(RunMatrix, NormalizedMinMaxPerRun) {
  const auto m = sample_matrix();
  EXPECT_NEAR(m.run_norm_min(0), 10.0 / 11.0, 1e-12);
  EXPECT_NEAR(m.run_norm_max(0), 12.0 / 11.0, 1e-12);
}

TEST(RunMatrix, RunCv) {
  RunMatrix m;
  m.add_run({5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(m.run_cv(0), 0.0);
  m.add_run({1.0, 2.0, 3.0});
  EXPECT_GT(m.run_cv(1), 0.0);
}

TEST(RunMatrix, GrandMeanAndSpread) {
  const auto m = sample_matrix();
  EXPECT_DOUBLE_EQ(m.grand_mean(), 16.0);
  EXPECT_NEAR(m.run_mean_spread(), 21.0 / 11.0, 1e-12);
}

TEST(RunMatrix, RunToRunCv) {
  RunMatrix m;
  m.add_run({10.0, 10.0});
  m.add_run({10.0, 10.0});
  EXPECT_DOUBLE_EQ(m.run_to_run_cv(), 0.0);
  m.add_run({30.0, 30.0});
  EXPECT_GT(m.run_to_run_cv(), 0.3);
}

TEST(RunMatrix, FlattenRowMajor) {
  const auto m = sample_matrix();
  const auto f = m.flatten();
  ASSERT_EQ(f.size(), 6u);
  EXPECT_DOUBLE_EQ(f[0], 10.0);
  EXPECT_DOUBLE_EQ(f[3], 20.0);
}

TEST(RunMatrix, PooledSummary) {
  const auto m = sample_matrix();
  const auto s = m.pooled_summary();
  EXPECT_EQ(s.n, 6u);
  EXPECT_DOUBLE_EQ(s.min, 10.0);
  EXPECT_DOUBLE_EQ(s.max, 22.0);
}

TEST(RunMatrix, VarianceComponentsSeparateRunEffect) {
  const auto m = sample_matrix();  // two runs with distinct means
  const auto vc = m.variance_components();
  EXPECT_GT(vc.icc, 0.5);
}

TEST(RunMatrix, UnequalRepCountsSupported) {
  RunMatrix m;
  m.add_run({1.0});
  m.add_run({2.0, 3.0, 4.0});
  EXPECT_EQ(m.runs(), 2u);
  EXPECT_EQ(m.flatten().size(), 4u);
  EXPECT_DOUBLE_EQ(m.run_mean(1), 3.0);
}

TEST(RunMatrix, EmptyMatrixSafeDefaults) {
  RunMatrix m;
  EXPECT_EQ(m.runs(), 0u);
  EXPECT_DOUBLE_EQ(m.run_mean_spread(), 1.0);
  EXPECT_EQ(m.flatten().size(), 0u);
}

}  // namespace
}  // namespace omv
