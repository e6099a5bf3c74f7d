#include "core/report.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace omv::report {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table::add_row: row width mismatch");
  }
  rows_.push_back(std::move(row));
}

namespace {

std::vector<std::size_t> column_widths(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> w(header.size(), 0);
  for (std::size_t c = 0; c < header.size(); ++c) w[c] = header[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      w[c] = std::max(w[c], row[c].size());
    }
  }
  return w;
}

void render_padded(std::ostringstream& os, const std::string& s,
                   std::size_t width) {
  os << s;
  for (std::size_t i = s.size(); i < width; ++i) os << ' ';
}

}  // namespace

std::string Table::render() const {
  std::ostringstream os;
  const auto w = column_widths(header_, rows_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c) os << "  ";
    render_padded(os, header_[c], w[c]);
  }
  os << '\n';
  std::size_t total = 0;
  for (std::size_t c = 0; c < w.size(); ++c) {
    total += w[c] + (c ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << "  ";
      render_padded(os, row[c], w[c]);
    }
    os << '\n';
  }
  return os.str();
}

std::string fmt_fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string fmt_pct(double fraction, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", digits, fraction * 100.0);
  return buf;
}

std::string banner(const std::string& title) {
  const std::string bar(title.size() + 10, '=');
  return bar + "\n==== " + title + " ====\n" + bar + "\n";
}

Series::Series(std::string x_name, std::vector<std::string> series_names)
    : x_name_(std::move(x_name)), names_(std::move(series_names)) {}

void Series::add(double x, std::vector<double> ys) {
  if (ys.size() != names_.size()) {
    throw std::invalid_argument("Series::add: series count mismatch");
  }
  points_.emplace_back(x, std::move(ys));
}

std::string Series::render(int digits) const {
  Table t([&] {
    std::vector<std::string> header{x_name_};
    header.insert(header.end(), names_.begin(), names_.end());
    return header;
  }());
  for (const auto& [x, ys] : points_) {
    std::vector<std::string> row{fmt_fixed(x, 0)};
    for (double y : ys) row.push_back(fmt_fixed(y, digits));
    t.add_row(std::move(row));
  }
  return t.render();
}

}  // namespace omv::report
