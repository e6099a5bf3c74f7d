// Unit tests for core/rng: determinism, fork independence, and first-moment
// sanity of the distributions the simulator relies on.

#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace omv {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 7.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, NextBelowRange) {
  Rng rng(5);
  bool saw_zero = false;
  bool saw_max = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    saw_zero |= (v == 0);
    saw_max |= (v == 6);
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST(Rng, ForkIsOrderIndependent) {
  const Rng base(9);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1_again = base.fork(1);
  EXPECT_EQ(f1.next_u64(), f1_again.next_u64());
  Rng g1 = f1;
  Rng g2 = f2;
  EXPECT_NE(g1.next_u64(), g2.next_u64());
}

TEST(Rng, ExponentialMeanApproximatesInverseRate) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, LognormalMean) {
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
  Rng rng(8);
  const double mu = std::log(100.0) - 0.5 * 0.5 * 0.5;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, 0.5);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, ParetoBoundedBelowByScale) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, ParetoHeavyTail) {
  // With alpha 1.5, the max of many draws should dwarf the median.
  Rng rng(10);
  double mx = 0.0;
  for (int i = 0; i < 20000; ++i) mx = std::max(mx, rng.pareto(1.0, 1.5));
  EXPECT_GT(mx, 50.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitMix64KnownAnswerVectors) {
  // The canonical SplitMix64 output stream for seed 0 (Vigna's reference
  // implementation). Pinning these freezes the generator: any change to
  // the increment or finalizer invalidates every archived seed and cache
  // entry in existence.
  Rng rng(0);
  EXPECT_EQ(rng.next_u64(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(rng.next_u64(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(rng.next_u64(), 0x06c45d188009454fULL);
  EXPECT_EQ(rng.next_u64(), 0xf88bb8a8724c81ecULL);
  EXPECT_EQ(rng.next_u64(), 0x1b39896a51a8749bULL);
}

TEST(Rng, SplitMix64KnownAnswerNonzeroSeed) {
  Rng rng(0x123456789abcdef0ULL);
  EXPECT_EQ(rng.next_u64(), 0x161922c645ce50e8ULL);
  EXPECT_EQ(rng.next_u64(), 0xad760cafa1697b60ULL);
  EXPECT_EQ(rng.next_u64(), 0x3501ff44902ca50dULL);
}

}  // namespace
}  // namespace omv
