// Tests for the harness environment handling: the OMNIVAR_QUICK /
// OMNIVAR_RUNS / OMNIVAR_REPS protocol overrides in bench/harness.hpp, and
// the --jobs / OMNIVAR_JOBS executor width (cli::parse_options +
// cli::effective_jobs) that harnesses shard their runs over.

#include "bench/harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/executor.hpp"

namespace omv::harness {
namespace {

using cli::effective_jobs;

/// Clears every OMNIVAR_* variable the cases touch around each test so
/// cases cannot leak protocol settings into each other.
class HarnessEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }

  static void clear() {
    ::unsetenv("OMNIVAR_QUICK");
    ::unsetenv("OMNIVAR_RUNS");
    ::unsetenv("OMNIVAR_REPS");
    ::unsetenv("OMNIVAR_JOBS");
    ::unsetenv("OMNIVAR_CELL_JOBS");
  }

  /// The executor width an omnivar invocation with `args` resolves.
  static std::size_t width_of(std::vector<const char*> args) {
    args.insert(args.begin(), "omnivar");
    const cli::Options o = cli::parse_options(
        static_cast<int>(args.size()), const_cast<char**>(args.data()));
    return cli::effective_width(o);
  }
};

TEST_F(HarnessEnvTest, PaperSpecDefaultsMatchPaperProtocol) {
  const auto spec = paper_spec(77);
  EXPECT_EQ(spec.runs, 10u);
  EXPECT_EQ(spec.reps, 100u);
  EXPECT_EQ(spec.warmup, 1u);
  EXPECT_EQ(spec.seed, 77u);
}

TEST_F(HarnessEnvTest, PaperSpecHonorsExplicitArguments) {
  const auto spec = paper_spec(1, 4, 25);
  EXPECT_EQ(spec.runs, 4u);
  EXPECT_EQ(spec.reps, 25u);
}

TEST_F(HarnessEnvTest, QuickClampsProtocol) {
  ::setenv("OMNIVAR_QUICK", "1", 1);
  const auto spec = paper_spec(1);
  EXPECT_EQ(spec.runs, 3u);
  EXPECT_EQ(spec.reps, 10u);
}

TEST_F(HarnessEnvTest, QuickOnlyClampsNeverGrows) {
  ::setenv("OMNIVAR_QUICK", "1", 1);
  const auto spec = paper_spec(1, 2, 5);
  EXPECT_EQ(spec.runs, 2u);
  EXPECT_EQ(spec.reps, 5u);
}

TEST_F(HarnessEnvTest, QuickZeroIsDisabled) {
  ::setenv("OMNIVAR_QUICK", "0", 1);
  const auto spec = paper_spec(1);
  EXPECT_EQ(spec.runs, 10u);
  EXPECT_EQ(spec.reps, 100u);
}

TEST_F(HarnessEnvTest, RunsAndRepsOverrideExplicitly) {
  ::setenv("OMNIVAR_RUNS", "6", 1);
  ::setenv("OMNIVAR_REPS", "33", 1);
  const auto spec = paper_spec(1);
  EXPECT_EQ(spec.runs, 6u);
  EXPECT_EQ(spec.reps, 33u);
}

TEST_F(HarnessEnvTest, MalformedRunsRepsKeepDefaults) {
  ::setenv("OMNIVAR_RUNS", "abc", 1);
  ::setenv("OMNIVAR_REPS", "-5", 1);
  const auto spec = paper_spec(1);
  EXPECT_EQ(spec.runs, 10u);   // not strtoul's silent 0
  EXPECT_EQ(spec.reps, 100u);
}

TEST_F(HarnessEnvTest, ZeroRunsRepsAreRejected) {
  ::setenv("OMNIVAR_RUNS", "0", 1);
  const auto spec = paper_spec(1);
  EXPECT_EQ(spec.runs, 10u);  // an empty protocol is never useful
}

TEST_F(HarnessEnvTest, ExplicitOverridesBeatQuick) {
  ::setenv("OMNIVAR_QUICK", "1", 1);
  ::setenv("OMNIVAR_RUNS", "8", 1);
  const auto spec = paper_spec(1);
  EXPECT_EQ(spec.runs, 8u);   // explicit override applies after the clamp
  EXPECT_EQ(spec.reps, 10u);  // quick clamp still applies to reps
}

TEST_F(HarnessEnvTest, JobsDefaultsToSerial) {
  EXPECT_EQ(effective_jobs(0), 1u);
  EXPECT_EQ(width_of({}), 1u);
}

TEST_F(HarnessEnvTest, JobsReadsEnvironment) {
  ::setenv("OMNIVAR_JOBS", "3", 1);
  EXPECT_EQ(effective_jobs(0), 3u);
  EXPECT_EQ(width_of({}), 3u);
}

TEST_F(HarnessEnvTest, JobsZeroMeansHardwareConcurrency) {
  ::setenv("OMNIVAR_JOBS", "0", 1);
  EXPECT_GE(effective_jobs(0), 1u);
  EXPECT_EQ(effective_jobs(0), core::resolve_jobs(0));
}

TEST_F(HarnessEnvTest, ParseArgsEqualsForm) {
  EXPECT_EQ(width_of({"--jobs=5"}), 5u);
}

TEST_F(HarnessEnvTest, ParseArgsSeparateForm) {
  EXPECT_EQ(width_of({"--jobs", "7"}), 7u);
}

TEST_F(HarnessEnvTest, ParseArgsOverridesEnvironment) {
  ::setenv("OMNIVAR_JOBS", "2", 1);
  EXPECT_EQ(width_of({"--jobs=9"}), 9u);
}

TEST_F(HarnessEnvTest, ParseJobCountStrict) {
  std::size_t n = 0;
  EXPECT_TRUE(cli::parse_job_count("5", n));
  EXPECT_EQ(n, 5u);
  EXPECT_TRUE(cli::parse_job_count("0", n));
  EXPECT_EQ(n, core::resolve_jobs(0));
  EXPECT_FALSE(cli::parse_job_count("", n));
  EXPECT_FALSE(cli::parse_job_count("abc", n));
  EXPECT_FALSE(cli::parse_job_count("1O", n));  // letter O typo
  EXPECT_FALSE(cli::parse_job_count("4 ", n));
  EXPECT_FALSE(cli::parse_job_count(nullptr, n));
  EXPECT_FALSE(cli::parse_job_count("-4", n));  // strtoul would wrap this
  EXPECT_FALSE(cli::parse_job_count("+4", n));
  EXPECT_FALSE(cli::parse_job_count("99999999999999999999999", n));  // ERANGE
  EXPECT_TRUE(cli::parse_job_count("1024", n));
  EXPECT_EQ(n, cli::kMaxJobs);
  EXPECT_FALSE(cli::parse_job_count("1025", n));  // above the ceiling
}

TEST_F(HarnessEnvTest, MalformedJobsFlagIsIgnoredNotExpanded) {
  EXPECT_EQ(width_of({"--jobs=1O"}), 1u);  // stays serial, not all cores
}

TEST_F(HarnessEnvTest, MalformedJobsEnvFallsBackToSerial) {
  ::setenv("OMNIVAR_JOBS", "abc", 1);
  EXPECT_EQ(effective_jobs(0), 1u);
}

TEST_F(HarnessEnvTest, NegativeJobsIsRejectedNotWrapped) {
  EXPECT_EQ(width_of({"--jobs=-4"}), 1u);  // not ULONG_MAX-3 workers
  ::setenv("OMNIVAR_JOBS", "-4", 1);
  EXPECT_EQ(effective_jobs(0), 1u);
}

// Each worker is an OS thread: a width past cli::kMaxJobs is reported and
// ignored like any malformed value, never handed to the executor (where
// thread creation would fail and abort the process).
TEST_F(HarnessEnvTest, JobsAboveCeilingFlagIsIgnored) {
  EXPECT_EQ(width_of({"--jobs=1024"}), 1024u);
  EXPECT_EQ(width_of({"--jobs", "100000"}), 1u);
  EXPECT_EQ(width_of({"--jobs=18446744073709551615"}), 1u);
  EXPECT_EQ(width_of({"--cell-jobs", "100000"}), 1u);

  const char* argv[] = {"omnivar", "--jobs", "100000"};
  const cli::Options o = cli::parse_options(3, const_cast<char**>(argv));
  ASSERT_EQ(o.errors.size(), 1u);
  EXPECT_NE(o.errors[0].find("'100000'"), std::string::npos) << o.errors[0];
  EXPECT_NE(o.errors[0].find("1024"), std::string::npos) << o.errors[0];
}

TEST_F(HarnessEnvTest, JobsAboveCeilingEnvIsIgnored) {
  ::setenv("OMNIVAR_JOBS", "100000", 1);
  EXPECT_EQ(effective_jobs(0), 1u);
  ::setenv("OMNIVAR_JOBS", "18446744073709551615", 1);
  EXPECT_EQ(effective_jobs(0), 1u);
  ::setenv("OMNIVAR_CELL_JOBS", "18446744073709551615", 1);
  EXPECT_EQ(cli::effective_cell_jobs(0), 1u);
  EXPECT_EQ(width_of({}), 1u);
}

TEST_F(HarnessEnvTest, TrailingJobsFlagWithoutValueIsIgnored) {
  EXPECT_EQ(width_of({"--jobs"}), 1u);
}

TEST_F(HarnessEnvTest, ParseArgsIgnoresUnknownArguments) {
  EXPECT_EQ(width_of({"--frobnicate", "--jobs=4", "positional"}), 4u);
}

// --cell-jobs / OMNIVAR_CELL_JOBS survive only as a deprecated alias: the
// width is the larger of the two settings.
TEST_F(HarnessEnvTest, CellJobsAliasTakesTheLargerWidth) {
  EXPECT_EQ(width_of({"--cell-jobs", "4", "--jobs", "1"}), 4u);
  EXPECT_EQ(width_of({"--jobs", "4", "--cell-jobs", "1"}), 4u);
  EXPECT_EQ(width_of({"--jobs", "3", "--cell-jobs", "2"}), 3u);
  ::setenv("OMNIVAR_CELL_JOBS", "5", 1);
  EXPECT_EQ(width_of({"--jobs", "2"}), 5u);
}

TEST_F(HarnessEnvTest, RunShardedHonorsJobsKnob) {
  ::setenv("OMNIVAR_JOBS", "4", 1);
  core::Executor executor(effective_jobs(0));
  EXPECT_EQ(executor.workers(), 4u);
  ExperimentSpec spec;
  spec.runs = 5;
  spec.reps = 3;
  spec.seed = 11;
  const auto kernel = [](const RepContext& c) {
    return static_cast<double>(c.run_seed % 1000) +
           static_cast<double>(c.rep);
  };
  const auto sharded = run_experiment_parallel(
      spec, [&](const RunSlot&) -> RepKernel { return kernel; }, executor);
  const auto serial = run_experiment(spec, kernel);
  ASSERT_EQ(sharded.runs(), serial.runs());
  for (std::size_t r = 0; r < serial.runs(); ++r) {
    for (std::size_t k = 0; k < serial.run(r).size(); ++k) {
      EXPECT_EQ(sharded.run(r)[k], serial.run(r)[k]);
    }
  }
}

}  // namespace
}  // namespace omv::harness
