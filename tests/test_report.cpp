// Unit tests for core/report: table/series rendering and number formats.

#include "core/report.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace omv::report {
namespace {

Table sample_table() {
  Table t({"run", "mean", "cv"});
  t.add_row({"1", "10.5", "0.01"});
  t.add_row({"2", "11.0", "0.02"});
  return t;
}

TEST(Table, Dimensions) {
  const auto t = sample_table();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, AsciiContainsHeaderAndSeparator) {
  const auto s = sample_table().render();
  EXPECT_NE(s.find("run"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_NE(s.find("11.0"), std::string::npos);
}

TEST(Fmt, FixedDigits) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(3.0, 0), "3");
  EXPECT_EQ(fmt_fixed(1234.5678, 1), "1234.6");
}

TEST(Fmt, Percent) {
  EXPECT_EQ(fmt_pct(0.031, 1), "3.1%");
  EXPECT_EQ(fmt_pct(1.5, 0), "150%");
}

TEST(Banner, ContainsTitle) {
  const auto b = banner("Table 2");
  EXPECT_NE(b.find("Table 2"), std::string::npos);
  EXPECT_NE(b.find("===="), std::string::npos);
}

TEST(Series, RendersColumns) {
  Series s("threads", {"mean_us", "cv"});
  s.add(4, {124020.0, 0.001});
  s.add(254, {154277.0, 0.030});
  const auto out = s.render(3);
  EXPECT_NE(out.find("threads"), std::string::npos);
  EXPECT_NE(out.find("mean_us"), std::string::npos);
  EXPECT_NE(out.find("254"), std::string::npos);
  EXPECT_EQ(out.find("254."), std::string::npos);  // x has no decimals
  EXPECT_NE(out.find("124020.000"), std::string::npos);
}

TEST(Series, SizeMismatchThrows) {
  Series s("x", {"y"});
  EXPECT_THROW(s.add(1, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace omv::report
