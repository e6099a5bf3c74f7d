#include "core/stat_tests.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/descriptive.hpp"

namespace omv::stats {
namespace {

// Ranks with midrank tie handling. Returns ranks (1-based) aligned with the
// concatenation order, plus the tie-correction term sum(t^3 - t).
struct RankResult {
  std::vector<double> ranks;
  double tie_term = 0.0;
};

RankResult midranks(std::span<const double> concat) {
  const std::size_t n = concat.size();
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return concat[a] < concat[b]; });
  RankResult r;
  r.ranks.assign(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && concat[idx[j + 1]] == concat[idx[i]]) ++j;
    const double avg_rank =
        (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2.0;
    const double t = static_cast<double>(j - i + 1);
    if (t > 1.0) r.tie_term += t * t * t - t;
    for (std::size_t k = i; k <= j; ++k) r.ranks[idx[k]] = avg_rank;
    i = j + 1;
  }
  return r;
}

}  // namespace

double normal_cdf(double z) noexcept {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double t_two_sided_p(double t, double df) noexcept {
  if (df <= 0.0) return 1.0;
  const double at = std::abs(t);
  if (df > 100.0) return 2.0 * (1.0 - normal_cdf(at));
  // Hill (1970) style normalizing transformation of t to z.
  const double g = (df - 1.5) / ((df - 1.0) * (df - 1.0));
  const double w = at * at / df;
  const double z = std::sqrt(std::max(0.0, (df - 0.5) *
                                               std::log1p(w) *
                                               (1.0 - g * w)));
  return 2.0 * (1.0 - normal_cdf(z));
}

double f_upper_p(double f, double df1, double df2) noexcept {
  if (f <= 0.0) return 1.0;
  // Paulson's normal approximation to the F distribution.
  const double x = std::cbrt(f);
  const double a = 2.0 / (9.0 * df1);
  const double b = 2.0 / (9.0 * df2);
  const double num = x * (1.0 - b) - (1.0 - a);
  const double den = std::sqrt(std::max(1e-300, a + x * x * b));
  return 1.0 - normal_cdf(num / den);
}

TestResult welch_t_test(std::span<const double> a, std::span<const double> b,
                        double alpha) {
  TestResult r;
  r.alpha = alpha;
  if (a.size() < 2 || b.size() < 2) return r;
  const auto sa = summarize(a);
  const auto sb = summarize(b);
  const double va = sa.stddev * sa.stddev / static_cast<double>(sa.n);
  const double vb = sb.stddev * sb.stddev / static_cast<double>(sb.n);
  const double se = std::sqrt(va + vb);
  if (se == 0.0) {
    r.p_value = sa.mean == sb.mean ? 1.0 : 0.0;
    r.significant = r.p_value < alpha;
    return r;
  }
  r.statistic = (sa.mean - sb.mean) / se;
  const double df =
      (va + vb) * (va + vb) /
      (va * va / static_cast<double>(sa.n - 1) +
       vb * vb / static_cast<double>(sb.n - 1));
  r.p_value = t_two_sided_p(r.statistic, df);
  r.significant = r.p_value < alpha;
  return r;
}

TestResult mann_whitney_u(std::span<const double> a, std::span<const double> b,
                          double alpha) {
  TestResult r;
  r.alpha = alpha;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  if (a.empty() || b.empty()) return r;

  std::vector<double> concat(a.begin(), a.end());
  concat.insert(concat.end(), b.begin(), b.end());
  const auto rk = midranks(concat);

  double rank_sum_a = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) rank_sum_a += rk.ranks[i];
  const double u_a = rank_sum_a - na * (na + 1.0) / 2.0;
  r.statistic = u_a;

  const double n = na + nb;
  const double mu = na * nb / 2.0;
  const double tie_adj = rk.tie_term / (n * (n - 1.0));
  const double sigma2 = na * nb / 12.0 * ((n + 1.0) - tie_adj);
  if (sigma2 <= 0.0) {
    r.p_value = 1.0;
    return r;
  }
  const double z = (u_a - mu) / std::sqrt(sigma2);
  r.p_value = 2.0 * (1.0 - normal_cdf(std::abs(z)));
  r.significant = r.p_value < alpha;
  return r;
}

TestResult ks_test(std::span<const double> a, std::span<const double> b,
                   double alpha) {
  TestResult r;
  r.alpha = alpha;
  if (a.empty() || b.empty()) return r;
  auto sa = sorted_copy(a);
  auto sb = sorted_copy(b);
  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());

  double d = 0.0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < sa.size() && ib < sb.size()) {
    const double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
    d = std::max(d, std::abs(static_cast<double>(ia) / na -
                             static_cast<double>(ib) / nb));
  }
  r.statistic = d;
  const double ne = na * nb / (na + nb);
  const double lambda = (std::sqrt(ne) + 0.12 + 0.11 / std::sqrt(ne)) * d;
  // Asymptotic Kolmogorov Q-function (truncated series).
  double p = 0.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = 2.0 * std::pow(-1.0, k - 1) *
                        std::exp(-2.0 * k * k * lambda * lambda);
    p += term;
    if (std::abs(term) < 1e-10) break;
  }
  r.p_value = std::clamp(p, 0.0, 1.0);
  r.significant = r.p_value < alpha;
  return r;
}

TestResult brown_forsythe(std::span<const double> a, std::span<const double> b,
                          double alpha) {
  TestResult r;
  r.alpha = alpha;
  if (a.size() < 2 || b.size() < 2) return r;
  const double med_a = percentile(a, 50.0);
  const double med_b = percentile(b, 50.0);
  std::vector<double> za;
  std::vector<double> zb;
  za.reserve(a.size());
  zb.reserve(b.size());
  for (double x : a) za.push_back(std::abs(x - med_a));
  for (double x : b) zb.push_back(std::abs(x - med_b));
  const auto su_a = summarize(za);
  const auto su_b = summarize(zb);
  const double na = static_cast<double>(za.size());
  const double nb = static_cast<double>(zb.size());
  const double n = na + nb;
  const double grand = (su_a.mean * na + su_b.mean * nb) / n;
  const double between = na * (su_a.mean - grand) * (su_a.mean - grand) +
                         nb * (su_b.mean - grand) * (su_b.mean - grand);
  double within = 0.0;
  for (double z : za) within += (z - su_a.mean) * (z - su_a.mean);
  for (double z : zb) within += (z - su_b.mean) * (z - su_b.mean);
  if (within <= 0.0) {
    r.p_value = between > 0.0 ? 0.0 : 1.0;
    r.significant = r.p_value < alpha;
    return r;
  }
  const double df1 = 1.0;  // two groups
  const double df2 = n - 2.0;
  r.statistic = (between / df1) / (within / df2);
  r.p_value = f_upper_p(r.statistic, df1, df2);
  r.significant = r.p_value < alpha;
  return r;
}

double hedges_g(std::span<const double> a, std::span<const double> b) {
  if (a.size() < 2 || b.size() < 2) return 0.0;
  const auto sa = summarize(a);
  const auto sb = summarize(b);
  const double na = static_cast<double>(sa.n);
  const double nb = static_cast<double>(sb.n);
  const double pooled_var = ((na - 1.0) * sa.stddev * sa.stddev +
                             (nb - 1.0) * sb.stddev * sb.stddev) /
                            (na + nb - 2.0);
  if (pooled_var <= 0.0) return 0.0;
  const double d = (sb.mean - sa.mean) / std::sqrt(pooled_var);
  // Small-sample correction.
  const double j = 1.0 - 3.0 / (4.0 * (na + nb) - 9.0);
  return d * j;
}

}  // namespace omv::stats
