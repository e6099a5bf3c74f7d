#pragma once
// EarliestClock — the team schedulers' "whose clock is earliest?" query.
//
// A winner (tournament) tree over (clock, thread) pairs: each internal node
// holds the earlier of its two children, ties going to the lower thread
// index. That is exactly the pair a
// std::priority_queue<std::pair<double, std::size_t>, ..., std::greater<>>
// would pop, so a schedule is the same on either. The width is padded to a
// power of two with +inf leaves whose thread ids (>= n) lose every tie, so
// a padding leaf never wins. Changing one clock replays the single
// leaf-to-root path above it: log2(width) comparisons against the sibling
// nodes, with the running winner held in a local.

#include <bit>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace omv::ompsim {

class EarliestClock {
 public:
  /// One leaf per thread, initialised to `clocks`. Throws
  /// std::invalid_argument for an empty team.
  explicit EarliestClock(std::span<const double> clocks)
      : width_(std::bit_ceil(clocks.size())),
        clock_(clocks.begin(), clocks.end()) {
    if (clocks.empty()) {
      throw std::invalid_argument("EarliestClock: no threads");
    }
    // Node k's children are 2k and 2k+1; leaf i sits at width + i.
    node_.resize(2 * width_);
    for (std::size_t i = 0; i < width_; ++i) {
      node_[width_ + i] = {
          i < clocks.size() ? clocks[i]
                            : std::numeric_limits<double>::infinity(),
          i};
    }
    for (std::size_t k = width_ - 1; k >= 1; --k) {
      const Node& left = node_[2 * k];
      const Node& right = node_[2 * k + 1];
      node_[k] = earlier(right, left) ? right : left;
    }
  }

  /// The thread with the earliest clock (lowest index among equals).
  [[nodiscard]] std::size_t top() const noexcept { return node_[1].thread; }

  [[nodiscard]] double clock(std::size_t i) const noexcept {
    return clock_[i];
  }

  /// The n team clocks (padding excluded).
  [[nodiscard]] std::span<const double> clocks() const noexcept {
    return clock_;
  }

  /// Sets thread i's clock and replays its leaf-to-root path.
  void update(std::size_t i, double t) noexcept {
    clock_[i] = t;
    Node win{t, i};
    std::size_t k = width_ + i;
    node_[k] = win;
    for (; k > 1; k >>= 1) {
      const Node& other = node_[k ^ 1];
      if (earlier(other, win)) win = other;
      node_[k >> 1] = win;
    }
  }

 private:
  struct Node {
    double clock = 0.0;
    std::size_t thread = 0;
  };

  /// std::pair's operator< on (clock, thread).
  [[nodiscard]] static bool earlier(const Node& a, const Node& b) noexcept {
    return a.clock < b.clock ||
           (!(b.clock < a.clock) && a.thread < b.thread);
  }

  std::size_t width_;
  std::vector<double> clock_;  ///< the n team clocks.
  std::vector<Node> node_;     ///< [1, width_) internal, then the leaves.
};

}  // namespace omv::ompsim
