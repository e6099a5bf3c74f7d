#include "core/outliers.hpp"

#include "core/descriptive.hpp"

namespace omv::stats {
namespace {

void classify_tail(OutlierReport& r) {
  if (r.n_high > 0 && r.n_low > 0) {
    r.tail = Tail::both;
  } else if (r.n_high > 0) {
    r.tail = Tail::high;
  } else if (r.n_low > 0) {
    r.tail = Tail::low;
  } else {
    r.tail = Tail::none;
  }
}

OutlierReport scan(std::span<const double> xs, double lo, double hi) {
  OutlierReport r;
  r.lower_bound = lo;
  r.upper_bound = hi;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] > hi) {
      r.indices.push_back(i);
      ++r.n_high;
    } else if (xs[i] < lo) {
      r.indices.push_back(i);
      ++r.n_low;
    }
  }
  classify_tail(r);
  return r;
}

}  // namespace

OutlierReport tukey_outliers(std::span<const double> xs, double k) {
  if (xs.size() < 4) return {};
  const auto sorted = sorted_copy(xs);
  const double q1 = percentile_sorted(sorted, 25.0);
  const double q3 = percentile_sorted(sorted, 75.0);
  const double iqr = q3 - q1;
  return scan(xs, q1 - k * iqr, q3 + k * iqr);
}

const char* tail_name(Tail t) noexcept {
  switch (t) {
    case Tail::none:
      return "none";
    case Tail::high:
      return "high";
    case Tail::low:
      return "low";
    case Tail::both:
      return "both";
  }
  return "?";
}

}  // namespace omv::stats
