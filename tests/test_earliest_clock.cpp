// Unit tests for omp_model/earliest_clock: the winner tree must pop exactly
// what the std::priority_queue it replaced in the team schedulers popped.

#include "omp_model/earliest_clock.hpp"

#include <gtest/gtest.h>

#include <bit>
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

// 254 pads to 256 leaves (two +inf padding leaves); 7 pads to 8; 1, 2, 64
// and 256 are exact powers of two.
INSTANTIATE_TEST_SUITE_P(Widths, EarliestClockVsHeap,
                         ::testing::Values(1, 2, 3, 7, 64, 254, 256));

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

TEST(EarliestClock, EmptyTeamThrows) {
  EXPECT_THROW(EarliestClock(std::vector<double>{}), std::invalid_argument);
}

}  // namespace
}  // namespace omv::ompsim
