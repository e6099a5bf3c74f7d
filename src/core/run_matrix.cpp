#include "core/run_matrix.hpp"

#include <algorithm>

namespace omv {

void RunMatrix::add_run(std::vector<double> rep_times) {
  data_.push_back(std::move(rep_times));
}

stats::Summary RunMatrix::run_summary(std::size_t r) const {
  return stats::summarize(run(r));
}

double RunMatrix::run_mean(std::size_t r) const { return run_summary(r).mean; }

double RunMatrix::run_cv(std::size_t r) const { return run_summary(r).cv; }

double RunMatrix::run_norm_min(std::size_t r) const {
  return run_summary(r).norm_min();
}

double RunMatrix::run_norm_max(std::size_t r) const {
  return run_summary(r).norm_max();
}

std::vector<double> RunMatrix::run_means() const {
  std::vector<double> out;
  out.reserve(runs());
  for (std::size_t r = 0; r < runs(); ++r) out.push_back(run_mean(r));
  return out;
}

std::vector<double> RunMatrix::run_cvs() const {
  std::vector<double> out;
  out.reserve(runs());
  for (std::size_t r = 0; r < runs(); ++r) out.push_back(run_cv(r));
  return out;
}

stats::Summary RunMatrix::pooled_summary() const {
  return stats::summarize(flatten());
}

double RunMatrix::grand_mean() const {
  const auto means = run_means();
  return stats::summarize(means).mean;
}

double RunMatrix::run_to_run_cv() const {
  const auto means = run_means();
  return stats::summarize(means).cv;
}

double RunMatrix::run_mean_spread() const {
  const auto means = run_means();
  if (means.empty()) return 1.0;
  const auto [mn, mx] = std::minmax_element(means.begin(), means.end());
  return *mn > 0.0 ? *mx / *mn : 1.0;
}

stats::VarianceComponents RunMatrix::variance_components() const {
  return stats::decompose_variance(data_);
}

std::vector<double> RunMatrix::flatten() const {
  std::vector<double> out;
  std::size_t total = 0;
  for (const auto& row : data_) total += row.size();
  out.reserve(total);
  for (const auto& row : data_) out.insert(out.end(), row.begin(), row.end());
  return out;
}

}  // namespace omv
