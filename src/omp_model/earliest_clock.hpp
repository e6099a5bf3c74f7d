#pragma once
// EarliestClock — the team schedulers' "whose clock is earliest?" query.
//
// A winner (tournament) tree over (clock, thread) pairs: each internal node
// holds the earlier of its two children, ties going to the lower thread
// index. That is exactly the pair a
// std::priority_queue<std::pair<double, std::size_t>, ..., std::greater<>>
// would pop, so a schedule is the same on either. The width is padded to a
// power of two with leaves that never win (see below). Changing one clock
// replays the single leaf-to-root path above it: log2(width) comparisons
// against the sibling nodes, with the running winner held in a local.
//
// Each node is one unsigned 128-bit key: the clock's order-preserving bit
// pattern in the high 64 bits, the thread index in the low 64. The pattern
// is the IEEE one with only the sign bit flipped for a value with a clear
// sign bit and every bit flipped for one with the sign bit set, so unsigned
// order is value order from -inf to +inf. The integer order of keys is then
// the (clock, thread) pair order, and a plain std::min replaces the
// two-level comparison: no data-dependent branch on the replay path. Keys
// of distinct threads are distinct, so every node holds the unique minimum
// of its subtree and top() names the same thread the pair comparison
// would. -0.0 equals +0.0 as a clock (the tie then goes to the lower
// thread, as std::pair orders it), so the key maps it to +0.0; clock()
// keeps the stored value. Padding leaves carry the all-ones key, above the
// key of every thread, so top() < n whatever the clocks hold. A NaN clock,
// which the pair comparison cannot order, ranks above +inf (below -inf when
// its sign bit is set).

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
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
      node_[width_ + i] = i < clocks.size() ? key(clocks[i], i) : kPadding;
    }
    for (std::size_t k = width_ - 1; k >= 1; --k) {
      node_[k] = std::min(node_[2 * k], node_[2 * k + 1]);
    }
  }

  /// The thread with the earliest clock (lowest index among equals).
  [[nodiscard]] std::size_t top() const noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(node_[1]));
  }

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
    Key win = key(t, i);
    std::size_t k = width_ + i;
    node_[k] = win;
    for (; k > 1; k >>= 1) {
      win = std::min(win, node_[k ^ 1]);
      node_[k >> 1] = win;
    }
  }

 private:
  using Key = unsigned __int128;

  static constexpr Key kPadding = ~Key{0};

  /// (ordered clock bits << 64) | thread. t + 0.0 turns -0.0 into +0.0 and
  /// leaves every other clock unchanged; the mask is all ones for a set
  /// sign bit and the sign bit alone otherwise.
  [[nodiscard]] static Key key(double t, std::size_t thread) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(t + 0.0);
    const std::uint64_t mask = (std::uint64_t{0} - (bits >> 63)) |
                               (std::uint64_t{1} << 63);
    return (static_cast<Key>(bits ^ mask) << 64) |
           static_cast<std::uint64_t>(thread);
  }

  std::size_t width_;
  std::vector<double> clock_;  ///< the n team clocks.
  std::vector<Key> node_;      ///< [1, width_) internal, then the leaves.
};

}  // namespace omv::ompsim
