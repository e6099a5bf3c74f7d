// Unit tests for cli/hotpath_report: the BENCH_hotpath.json renderer.

#include "cli/hotpath_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace omv::cli {
namespace {

HotpathReport sample_report() {
  HotpathReport r;
  r.quick = true;
  r.sim_machine = "vera";
  r.noise_scan_cutover = 48;
  r.freq_scan_cutover = 48;
  r.kernels.push_back({"preemption_delay", "high", 120000, 70.0, 1400.0});
  r.kernels.push_back({"team_barrier_phase", "vera16", 0, 800.0, 0.0});
  return r;
}

TEST(HotpathReport, RendersSchemaAndKernels) {
  const std::string json = hotpath_report_json(sample_report());
  EXPECT_NE(json.find("\"schema\": \"omnivar-bench-hotpath-v3\""),
            std::string::npos);
  EXPECT_NE(json.find("\"quick\": true"), std::string::npos);
  EXPECT_NE(json.find("\"sim_machine\": \"vera\""), std::string::npos);
  EXPECT_NE(json.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel\": \"preemption_delay\""),
            std::string::npos);
  EXPECT_NE(json.find("\"stream_events\": 120000"), std::string::npos);
  EXPECT_NE(json.find("\"baseline_ns_per_op\": 1400"), std::string::npos);
  EXPECT_NE(json.find("\"speedup\": 20"), std::string::npos);
}

// "Dispatch" here is the density-adaptive scan-or-prefix-sum choice: the
// report records both cutovers, and carries no instruction-set field.
TEST(HotpathReport, RendersDispatchMetadataAndRegressionFlags) {
  const std::string json = hotpath_report_json(sample_report());
  EXPECT_NE(json.find("\"noise_scan_window\": 48"), std::string::npos);
  EXPECT_NE(json.find("\"freq_scan_episodes\": 48"), std::string::npos);
  EXPECT_NE(json.find("\"baseline_definition\": \"brute-force reference"),
            std::string::npos);
  EXPECT_EQ(json.find("\"isa"), std::string::npos);
  EXPECT_EQ(json.find("\"baseline_kind\""), std::string::npos);
  EXPECT_NE(json.find("\"regression\": false"), std::string::npos);
  EXPECT_NE(json.find("\"any_regression\": false"), std::string::npos);
}

TEST(HotpathReport, FlagsRegressionWhenBaselineBeatsOptimized) {
  HotpathReport r = sample_report();
  r.kernels.push_back({"mean_factor", "low", 10, 200.0, 100.0});
  EXPECT_TRUE(r.kernels.back().regression());
  const std::string json = hotpath_report_json(r);
  EXPECT_NE(json.find("\"regression\": true"), std::string::npos);
  EXPECT_NE(json.find("\"any_regression\": true"), std::string::npos);
}

TEST(HotpathReport, BaselineFreeKernelOmitsSpeedup) {
  const std::string json = hotpath_report_json(sample_report());
  // Exactly one kernel carries a baseline, so exactly one speedup entry.
  std::size_t n = 0;
  for (std::size_t pos = json.find("\"speedup\""); pos != std::string::npos;
       pos = json.find("\"speedup\"", pos + 1)) {
    ++n;
  }
  EXPECT_EQ(n, 1u);
}

TEST(HotpathReport, EmptyReportThrows) {
  HotpathReport empty;
  empty.sim_machine = "vera";
  EXPECT_THROW((void)hotpath_report_json(empty), std::invalid_argument);
}

TEST(HotpathReport, WriteRoundTripsToDisk) {
  const std::string path = "hotpath_report_test.json";
  ASSERT_TRUE(write_hotpath_report(sample_report(), path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), hotpath_report_json(sample_report()) + "\n");
  in.close();
  std::remove(path.c_str());
}

TEST(HotpathReport, WriteToUnwritablePathFails) {
  EXPECT_FALSE(
      write_hotpath_report(sample_report(), "/nonexistent-dir/x.json"));
}

}  // namespace
}  // namespace omv::cli
