#pragma once
// Compensated prefix-sum index for interval queries over append-only event
// streams.
//
// The simulator's hot queries (NoiseModel::preemption_delay,
// FreqModel::mean_factor) reduce to "sum of a weight over the events inside
// a time window". A plain running-sum array answers that as
// prefix[j] - prefix[i], but the difference of two rounded prefixes carries
// an absolute error of ~eps * |prefix[j]| — catastrophic once the stream is
// long and the window short (a dense event stream queried over one short
// compute phase). Storing each prefix as an unevaluated (sum, compensation)
// pair (Neumaier running compensation) makes range() accurate to a couple
// of ulps *of the range itself*, independent of how much history the
// stream has accumulated.

#include <cmath>
#include <cstddef>
#include <vector>

namespace omv::stats {

/// Append-only compensated prefix sums over a stream of doubles.
/// range(i, j) returns the sum of elements [i, j) with relative error on
/// the order of machine epsilon of that partial sum (not of the full
/// prefix), which is what keeps narrow-window interval queries over long
/// event histories well-conditioned.
class PrefixSum {
 public:
  PrefixSum() { clear(); }

  void clear() {
    sum_.assign(1, 0.0);
    comp_.assign(1, 0.0);
    s_ = 0.0;
    c_ = 0.0;
  }

  /// Number of appended elements.
  [[nodiscard]] std::size_t size() const noexcept { return sum_.size() - 1; }

  void reserve(std::size_t n) {
    sum_.reserve(n + 1);
    comp_.reserve(n + 1);
  }

  /// Appends one element in O(1) (amortized).
  void append(double x) {
    // Neumaier two-sum: s_ + x exactly equals t + err with
    // |err| <= ulp(t)/2; fold err into the running compensation.
    const double t = s_ + x;
    if (std::abs(s_) >= std::abs(x)) {
      c_ += (s_ - t) + x;
    } else {
      c_ += (x - t) + s_;
    }
    s_ = t;
    sum_.push_back(s_);
    comp_.push_back(c_);
  }

  /// Sum of elements [i, j). Requires i <= j <= size().
  [[nodiscard]] double range(std::size_t i, std::size_t j) const {
    // (sum + comp) approximates the true prefix to ~1 ulp; differencing the
    // two components separately keeps the error relative to the *range*.
    return (sum_[j] - sum_[i]) + (comp_[j] - comp_[i]);
  }

  /// Full compensated total.
  [[nodiscard]] double total() const { return s_ + c_; }

 private:
  std::vector<double> sum_;   ///< sum_[k] = running sum after k elements.
  std::vector<double> comp_;  ///< comp_[k] = accumulated rounding residue.
  double s_ = 0.0;
  double c_ = 0.0;
};

}  // namespace omv::stats
