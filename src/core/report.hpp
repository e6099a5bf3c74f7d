#pragma once
// Report rendering: aligned ASCII tables and series, used by every bench
// harness to print paper-style tables and figure data.

#include <cstddef>
#include <string>
#include <vector>

namespace omv::report {

/// A rectangular table with a header row. Cells are preformatted strings;
/// numeric helpers below format doubles consistently.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row; its size must equal the header's.
  void add_row(std::vector<std::string> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return header_.size(); }

  /// Raw header / row cells (artifact serialization).
  [[nodiscard]] const std::vector<std::string>& header() const noexcept {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& data()
      const noexcept {
    return rows_;
  }

  /// Renders as space-aligned columns under a dashed rule.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double in fixed notation with `digits` decimals.
[[nodiscard]] std::string fmt_fixed(double v, int digits = 2);

/// Formats as a percentage ("3.1%").
[[nodiscard]] std::string fmt_pct(double fraction, int digits = 1);

/// Section banner ("==== title ====") used between experiment blocks.
[[nodiscard]] std::string banner(const std::string& title);

/// An (x, series...) data block for figures: one x column plus one column
/// per named series, rendered like a Table.
class Series {
 public:
  Series(std::string x_name, std::vector<std::string> series_names);

  /// Appends one x value with its series values (must match series count).
  void add(double x, std::vector<double> ys);

  /// Renders as a Table: x in fixed notation with no decimals, each
  /// series value with `digits` decimals.
  [[nodiscard]] std::string render(int digits = 4) const;

  /// Raw data (artifact serialization: full precision, not the rendered
  /// fixed-digit strings).
  [[nodiscard]] const std::string& x_name() const noexcept { return x_name_; }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  [[nodiscard]] const std::vector<std::pair<double, std::vector<double>>>&
  points() const noexcept {
    return points_;
  }

 private:
  std::string x_name_;
  std::vector<std::string> names_;
  std::vector<std::pair<double, std::vector<double>>> points_;
};

}  // namespace omv::report
