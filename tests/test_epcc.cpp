// Unit tests for bench_suite/epcc: the measurement protocol helpers.

#include "bench_suite/epcc.hpp"

#include <gtest/gtest.h>

namespace omv::bench {
namespace {

TEST(EpccParams, Table1Defaults) {
  const auto sched = EpccParams::schedbench();
  EXPECT_EQ(sched.outer_reps, 100u);
  EXPECT_DOUBLE_EQ(sched.delay_us, 15.0);
  EXPECT_DOUBLE_EQ(sched.test_time_us, 1000.0);
  EXPECT_EQ(sched.itersperthr, 8192u);

  const auto sync = EpccParams::syncbench();
  EXPECT_EQ(sync.outer_reps, 100u);
  EXPECT_DOUBLE_EQ(sync.delay_us, 0.1);
  EXPECT_DOUBLE_EQ(sync.test_time_us, 1000.0);
}

TEST(SyncConstructs, AllNineListed) {
  EXPECT_EQ(all_sync_constructs().size(), 9u);
}

TEST(SyncConstructs, NamesAreUnique) {
  std::set<std::string> names;
  for (auto c : all_sync_constructs()) {
    names.insert(sync_construct_name(c));
  }
  EXPECT_EQ(names.size(), 9u);
  EXPECT_TRUE(names.count("reduction"));
  EXPECT_TRUE(names.count("parallel"));
}

TEST(CalibrateInnerreps, TargetsTestTime) {
  EXPECT_EQ(calibrate_innerreps(10.0, 1000.0), 100u);
  EXPECT_EQ(calibrate_innerreps(1000.0, 1000.0), 1u);
}

TEST(CalibrateInnerreps, ClampsToBounds) {
  EXPECT_EQ(calibrate_innerreps(1e9, 1000.0), 1u);
  EXPECT_EQ(calibrate_innerreps(1e-9, 1000.0), 1000000u);
  EXPECT_EQ(calibrate_innerreps(0.0, 1000.0), 1000u);  // degenerate guard
}

}  // namespace
}  // namespace omv::bench
