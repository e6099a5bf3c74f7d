// Unit tests for omp_model/earliest_clock: the winner tree must pop exactly
// what the std::priority_queue it replaced in the team schedulers popped.

#include "omp_model/earliest_clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace omv::ompsim {
namespace {

using Entry = std::pair<double, std::size_t>;  // (clock, thread)
using Heap = std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;

class EarliestClockVsHeap : public ::testing::TestWithParam<std::size_t> {};

// Seeded advances on a coarse grid: whole quarter-ticks, zero steps
// included, so equal clocks (and thus the lower-thread tie-break) are the
// common case rather than the exception.
TEST_P(EarliestClockVsHeap, SameThreadEveryStepAndSameFinalClocks) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<double> start(n);
    for (double& c : start) c = 0.25 * static_cast<double>(rng.next_below(4));

    EarliestClock tree(start);
    Heap heap;
    for (std::size_t i = 0; i < n; ++i) heap.emplace(start[i], i);

    for (std::size_t step = 0; step < 40 * n + 100; ++step) {
      const auto [t, i] = heap.top();
      heap.pop();
      ASSERT_EQ(tree.top(), i) << "n=" << n << " seed=" << seed
                               << " step=" << step;
      ASSERT_EQ(tree.clock(i), t);
      const double next = t + 0.25 * static_cast<double>(rng.next_below(3));
      tree.update(i, next);
      heap.emplace(next, i);
    }

    std::vector<double> expect(n);
    while (!heap.empty()) {
      expect[heap.top().second] = heap.top().first;
      heap.pop();
    }
    ASSERT_EQ(tree.clocks().size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.clocks()[i]),
                std::bit_cast<std::uint64_t>(expect[i]))
          << "n=" << n << " seed=" << seed << " thread=" << i;
    }
  }
}

// 254 pads to 256 leaves (two +inf padding leaves), 255 to 256 (one), 1000
// to 1024 (24); 7 pads to 8; 1, 2, 64 and 256 are exact powers of two.
INSTANTIATE_TEST_SUITE_P(Widths, EarliestClockVsHeap,
                         ::testing::Values(1, 2, 3, 7, 64, 254, 255, 256,
                                           1000));

TEST(EarliestClock, TiesGoToTheLowerThread) {
  const std::vector<double> clocks{2.0, 1.0, 1.0, 1.0};
  EarliestClock tree(clocks);
  EXPECT_EQ(tree.top(), 1u);
  tree.update(1, 1.0);  // unchanged clock: still the winner
  EXPECT_EQ(tree.top(), 1u);
  tree.update(1, 3.0);
  EXPECT_EQ(tree.top(), 2u);
  tree.update(0, 1.0);  // a non-winner moving earlier takes over the tie
  EXPECT_EQ(tree.top(), 0u);
}

TEST(EarliestClock, InfiniteClocksStillBeatPadding) {
  // Three threads pad to four leaves; a real thread at +inf must win the
  // tie against the +inf padding leaf.
  const double inf = std::numeric_limits<double>::infinity();
  EarliestClock tree(std::vector<double>{inf, inf, inf});
  EXPECT_EQ(tree.top(), 0u);
  tree.update(0, 5.0);
  tree.update(0, inf);
  EXPECT_EQ(tree.top(), 0u);
  EXPECT_EQ(tree.clocks().size(), 3u);
}

TEST(EarliestClock, SignedZerosAndInfinityFollowPairOrder) {
  // -0.0 and +0.0 are equal clocks, so their tie goes to the lower thread,
  // as std::pair orders them; +inf clocks lose to every finite one. Random
  // updates of any thread (not only the winner) over {-0, +0, 1, +inf}
  // must keep top() on the pair-order minimum, and clock() must keep the
  // stored sign.
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {-0.0, 0.0, 1.0, inf};
  for (const std::size_t n : {1u, 2u, 5u, 8u, 33u}) {
    Rng rng(n);
    std::vector<double> clocks(n);
    for (double& c : clocks) c = values[rng.next_below(4)];
    EarliestClock tree(clocks);
    for (int step = 0; step < 500; ++step) {
      Entry best{clocks[0], 0};
      for (std::size_t i = 1; i < n; ++i) {
        best = std::min(best, Entry{clocks[i], i});
      }
      ASSERT_EQ(tree.top(), best.second) << "n=" << n << " step=" << step;
      const std::size_t i = rng.next_below(n);
      clocks[i] = values[rng.next_below(4)];
      tree.update(i, clocks[i]);
      ASSERT_EQ(std::signbit(tree.clock(i)), std::signbit(clocks[i]));
    }
  }

  EarliestClock tree(std::vector<double>{1.0, 0.0, -0.0, 0.0});
  EXPECT_EQ(tree.top(), 1u);
  tree.update(1, inf);
  EXPECT_EQ(tree.top(), 2u);  // -0.0 ties +0.0 at thread 3 and is lower
  EXPECT_TRUE(std::signbit(tree.clock(2)));
  tree.update(0, -0.0);
  EXPECT_EQ(tree.top(), 0u);
  tree.update(0, inf);
  tree.update(2, inf);
  tree.update(3, inf);
  EXPECT_EQ(tree.top(), 0u);  // all +inf: the lowest real thread
}

TEST(EarliestClock, NegativeClocksFollowPairOrder) {
  // Team clocks are never negative under validated costs, but the tree
  // must still order them as std::pair does: -inf first, -0.0 tied with
  // +0.0. Widths 3 and 254 leave padding leaves that must never win.
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {-inf, -2.0, -1.0,
                           -std::numeric_limits<double>::denorm_min(),
                           -0.0, 0.0, 1.0, inf};
  for (const std::size_t n : {3u, 254u}) {
    for (const bool all_negative : {true, false}) {
      const std::size_t choices = all_negative ? 5 : 8;
      Rng rng(n + (all_negative ? 1 : 0));
      std::vector<double> clocks(n);
      for (double& c : clocks) c = values[rng.next_below(choices)];
      EarliestClock tree(clocks);
      for (std::size_t step = 0; step < 4 * n; ++step) {
        Entry best{clocks[0], 0};
        for (std::size_t i = 1; i < n; ++i) {
          best = std::min(best, Entry{clocks[i], i});
        }
        ASSERT_EQ(tree.top(), best.second) << "n=" << n << " step=" << step;
        const std::size_t i = rng.next_below(n);
        clocks[i] = values[rng.next_below(choices)];
        tree.update(i, clocks[i]);
      }
    }
  }
}

TEST(EarliestClock, NaNClocksNeverPickPadding) {
  // std::pair cannot order a NaN clock, so no pop order is defined for
  // one; the tree must still name a real thread, never a padding leaf.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {3u, 254u}) {
    EarliestClock tree(std::vector<double>(n, nan));
    EXPECT_LT(tree.top(), n);
    EXPECT_EQ(tree.top(), 0u);  // equal keys: the lowest thread
    EarliestClock negative(std::vector<double>(n, -nan));
    EXPECT_LT(negative.top(), n);
    Rng rng(n);
    for (std::size_t step = 0; step < 4 * n; ++step) {
      const std::size_t i = rng.next_below(n);
      const double v = rng.next_below(2) == 0 ? nan : -nan;
      tree.update(i, v);
      negative.update(i, v);
      ASSERT_LT(tree.top(), n) << "n=" << n << " step=" << step;
      ASSERT_LT(negative.top(), n) << "n=" << n << " step=" << step;
      ASSERT_TRUE(std::isnan(tree.clock(tree.top())));
    }
  }
}

TEST(EarliestClock, EmptyTeamThrows) {
  EXPECT_THROW(EarliestClock(std::vector<double>{}), std::invalid_argument);
}

}  // namespace
}  // namespace omv::ompsim
