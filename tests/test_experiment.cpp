// Unit tests for core/experiment: the runs x reps protocol runner.

#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace omv {
namespace {

TEST(Experiment, ShapeMatchesSpec) {
  ExperimentSpec spec;
  spec.runs = 4;
  spec.reps = 7;
  spec.warmup = 2;
  const auto m = run_experiment(
      spec, [](const RepContext& c) { return static_cast<double>(c.rep); });
  EXPECT_EQ(m.runs(), 4u);
  for (std::size_t r = 0; r < m.runs(); ++r) {
    EXPECT_EQ(m.run(r).size(), 7u);
  }
}

TEST(Experiment, WarmupsAreDiscarded) {
  ExperimentSpec spec;
  spec.runs = 1;
  spec.reps = 3;
  spec.warmup = 2;
  int warmups_seen = 0;
  const auto m = run_experiment(spec, [&](const RepContext& c) {
    if (c.warmup) ++warmups_seen;
    return 1.0;
  });
  EXPECT_EQ(warmups_seen, 2);
  EXPECT_EQ(m.run(0).size(), 3u);
}

TEST(Experiment, RunSeedsAreDistinctAndStable) {
  const auto s0 = derive_run_seed(42, 0);
  const auto s1 = derive_run_seed(42, 1);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(s0, derive_run_seed(42, 0));
  EXPECT_NE(derive_run_seed(42, 0), derive_run_seed(43, 0));
}

TEST(Experiment, KernelSeesDerivedRunSeed) {
  ExperimentSpec spec;
  spec.runs = 2;
  spec.reps = 1;
  spec.warmup = 0;
  spec.seed = 9;
  std::vector<std::uint64_t> seen;
  (void)run_experiment(spec, [&](const RepContext& c) {
    seen.push_back(c.run_seed);
    return 0.0;
  });
  EXPECT_EQ(seen[0], derive_run_seed(9, 0));
  EXPECT_EQ(seen[1], derive_run_seed(9, 1));
}

}  // namespace
}  // namespace omv
