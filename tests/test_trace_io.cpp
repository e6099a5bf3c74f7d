// Unit tests for core/trace_io: CSV round-trips.

#include "core/trace_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace omv::io {
namespace {

RunMatrix sample() {
  RunMatrix m;
  m.add_run({124020.18, 124062.15, 123989.57});
  m.add_run({154277.48, 154162.74});
  return m;
}

TEST(TraceIo, CsvHasHeaderAndRows) {
  const auto csv = run_matrix_to_csv(sample());
  EXPECT_EQ(csv.rfind("run,rep,time", 0), 0u);
  EXPECT_NE(csv.find("0,0,"), std::string::npos);
  EXPECT_NE(csv.find("1,1,"), std::string::npos);
}

TEST(TraceIo, RoundTripExact) {
  const auto m = sample();
  const auto back = run_matrix_from_csv(run_matrix_to_csv(m));
  ASSERT_EQ(back.runs(), m.runs());
  for (std::size_t r = 0; r < m.runs(); ++r) {
    ASSERT_EQ(back.run(r).size(), m.run(r).size());
    for (std::size_t k = 0; k < m.run(r).size(); ++k) {
      EXPECT_DOUBLE_EQ(back.run(r)[k], m.run(r)[k]);
    }
  }
}

TEST(TraceIo, RoundTripPreservesStatistics) {
  const auto m = sample();
  const auto back = run_matrix_from_csv(run_matrix_to_csv(m));
  EXPECT_DOUBLE_EQ(back.grand_mean(), m.grand_mean());
  EXPECT_DOUBLE_EQ(back.pooled_summary().cv, m.pooled_summary().cv);
}

TEST(TraceIo, EmptyMatrixRoundTrips) {
  const auto back = run_matrix_from_csv(run_matrix_to_csv(RunMatrix{}));
  EXPECT_EQ(back.runs(), 0u);
}

TEST(TraceIo, RejectsBadHeader) {
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("nope\n1,2,3\n")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("")), std::invalid_argument);
}

TEST(TraceIo, RejectsMalformedRows) {
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\nx,0,1.0\n")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n0,zero,1.0\n")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n0,0,abc\n")),
               std::invalid_argument);
}

TEST(TraceIo, RejectsTrailingGarbageAfterTime) {
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n0,0,1.5,junk\n")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n0,0,1.5 \n")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n0,0,1.5x\n")),
               std::invalid_argument);
}

TEST(TraceIo, RejectsDuplicateCells) {
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n0,0,1.0\n0,0,2.0\n")),
      std::invalid_argument);
}

TEST(TraceIo, RejectsGappedRepIndices) {
  // rep 1 is missing: silently compacting would misalign rep-indexed
  // analyses (periodic-noise detection).
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n0,0,1.0\n0,2,3.0\n")),
      std::invalid_argument);
}

TEST(TraceIo, RejectsRunGapWithoutMetadata) {
  // No "# runs=" line: a run with no rows means the file is truncated.
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n0,0,1.0\n2,0,3.0\n")),
      std::invalid_argument);
}

TEST(TraceIo, MetadataPreservesEmptyRuns) {
  RunMatrix m;
  m.add_run({1.0, 2.0});
  m.add_run({});       // empty middle run
  m.add_run({5.0});
  m.add_run({});       // empty trailing run
  const auto back = run_matrix_from_csv(run_matrix_to_csv(m));
  ASSERT_EQ(back.runs(), 4u);
  EXPECT_EQ(back.run(0).size(), 2u);
  EXPECT_EQ(back.run(1).size(), 0u);
  EXPECT_EQ(back.run(2).size(), 1u);
  EXPECT_EQ(back.run(3).size(), 0u);
}

TEST(TraceIo, RejectsRowBeyondDeclaredRuns) {
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n# runs=1\n1,0,2.0\n")),
      std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv("run,rep,time\n# runs=x\n0,0,1.0\n")),
      std::invalid_argument);
}

TEST(TraceIo, RejectsRunCountsPastTheCap) {
  // A forged "# runs=N" must fail before N empty runs are allocated, with
  // a diagnostic naming the cap.
  const std::vector<std::string> forged = {
      "5000000", "18446744073709551615", std::to_string(kMaxRunMatrixRuns + 1)};
  for (const auto& n : forged) {
    try {
      static_cast<void>(
          run_matrix_from_csv("run,rep,time\n# runs=" + n + "\n"));
      ADD_FAILURE() << "accepted '# runs=" << n << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos)
          << e.what();
    }
  }
  // So must a data row whose run index implies that many runs; the
  // largest index once wrapped the implied count to zero and the row
  // vanished silently.
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv(
                   "run,rep,time\n18446744073709551615,0,1.0\n")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_matrix_from_csv(
                   "run,rep,time\n# runs=1\n0,0,1.0\n"
                   "18446744073709551615,0,2.0\n")),
               std::invalid_argument);
  // The cap itself is a legal (empty) matrix.
  const auto at_cap = run_matrix_from_csv(
      "run,rep,time\n# runs=" + std::to_string(kMaxRunMatrixRuns) + "\n");
  EXPECT_EQ(at_cap.runs(), kMaxRunMatrixRuns);
}

TEST(TraceIo, ToleratesCrlfAndComments) {
  const auto m = run_matrix_from_csv(
      "run,rep,time\r\n# a comment\r\n0,0,1.5\r\n0,1,2.5\r\n");
  ASSERT_EQ(m.runs(), 1u);
  EXPECT_DOUBLE_EQ(m.run(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(m.run(0)[1], 2.5);
}

TEST(TraceIo, ToleratesBlankLinesAndShuffledRows) {
  const auto m = run_matrix_from_csv(
      "run,rep,time\n1,0,5.0\n\n0,1,2.0\n0,0,1.0\n");
  ASSERT_EQ(m.runs(), 2u);
  EXPECT_DOUBLE_EQ(m.run(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(m.run(0)[1], 2.0);
  EXPECT_DOUBLE_EQ(m.run(1)[0], 5.0);
}

TEST(TraceIo, RoundTripExactForRaggedFullPrecisionMatrices) {
  // Property: write -> read is the identity for every representable
  // double, including adversarial precision and ragged/empty rows.
  omv::Rng rng(20260729);
  RunMatrix m;
  for (std::size_t r = 0; r < 8; ++r) {
    std::vector<double> reps;
    const std::size_t k = r == 3 ? 0 : 1 + (r * 7) % 13;  // ragged + empty
    for (std::size_t i = 0; i < k; ++i) {
      // Stress the 17-digit path: irrational-ish products over wide
      // magnitudes.
      const double x = rng.normal(0.0, 1.0) * std::pow(10.0, (int(i) % 9) - 4);
      reps.push_back(x * (1.0 / 3.0) + 0.1);
    }
    m.add_run(std::move(reps));
  }
  const auto back = run_matrix_from_csv(run_matrix_to_csv(m));
  ASSERT_EQ(back.runs(), m.runs());
  for (std::size_t r = 0; r < m.runs(); ++r) {
    ASSERT_EQ(back.run(r).size(), m.run(r).size());
    for (std::size_t k = 0; k < m.run(r).size(); ++k) {
      // Bit-exact, not just close.
      EXPECT_EQ(back.run(r)[k], m.run(r)[k]) << "run " << r << " rep " << k;
    }
  }
  // Identical derived metrics (the property the result cache rests on).
  EXPECT_EQ(back.grand_mean(), m.grand_mean());
  EXPECT_EQ(back.pooled_summary().cv, m.pooled_summary().cv);
  EXPECT_EQ(back.run_to_run_cv(), m.run_to_run_cv());
}

TEST(TraceIo, FileSaveLoad) {
  const std::string path = "/tmp/omnivar_trace_io_test.csv";
  save_run_matrix(path, sample());
  const auto back = load_run_matrix(path);
  EXPECT_EQ(back.runs(), 2u);
  std::remove(path.c_str());
}

TEST(TraceIo, FileErrorsThrow) {
  EXPECT_THROW(static_cast<void>(load_run_matrix("/nonexistent/dir/x.csv")),
               std::runtime_error);
  EXPECT_THROW(save_run_matrix("/nonexistent/dir/x.csv", sample()),
               std::runtime_error);
}

}  // namespace
}  // namespace omv::io
