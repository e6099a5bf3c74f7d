// Unit tests for supervised cell execution: error taxonomy, seeded
// backoff, retry-then-succeed, quarantine, and the cooperative deadline.

#include "cli/supervisor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>

#include "cli/exit_codes.hpp"
#include "core/deadline.hpp"
#include "core/faultinject.hpp"

namespace omv::cli {
namespace {

RunMatrix tiny_matrix() {
  RunMatrix m("cell");
  m.add_run({1.0});
  return m;
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear_active_plan(); }
  void TearDown() override {
    fault::clear_active_plan();
    core::clear_cell_deadline();
  }
};

// --------------------------------------------------------------- taxonomy

TEST_F(SupervisorTest, ClassifiesExceptionsIntoTheTaxonomy) {
  const auto classify = [](auto&& thrower) {
    try {
      thrower();
    } catch (...) {
      return classify_current_exception();
    }
    return std::string("no-throw");
  };
  EXPECT_EQ(classify([] { throw core::CellTimeout("t"); }), "timeout");
  EXPECT_EQ(classify([] { throw fault::InjectedFault("io", "torn"); }),
            "io");
  EXPECT_EQ(classify([] { throw fault::InjectedFault("exception", "x"); }),
            "exception");
  EXPECT_EQ(classify([] { throw std::ios_base::failure("disk"); }), "io");
  EXPECT_EQ(classify([] { throw std::runtime_error("boom"); }),
            "exception");
  EXPECT_EQ(classify([] { throw 42; }), "exception");
}

// ---------------------------------------------------------------- backoff

TEST_F(SupervisorTest, BackoffIsDeterministicBoundedAndGrows) {
  // Same (seed, attempt) -> same delay; the schedule is reproducible.
  EXPECT_EQ(backoff_delay(7, 1), backoff_delay(7, 1));
  // Different seeds desynchronize the herd.
  bool any_differs = false;
  for (std::uint64_t s = 0; s < 8 && !any_differs; ++s) {
    any_differs = backoff_delay(s, 1) != backoff_delay(s + 100, 1);
  }
  EXPECT_TRUE(any_differs);
  // 75%..125% of the exponential base (25ms doubling, 2s cap).
  for (std::size_t attempt = 1; attempt <= 12; ++attempt) {
    std::uint64_t base = 25;
    for (std::size_t i = 1; i < attempt && base < 2000; ++i) base *= 2;
    if (base > 2000) base = 2000;
    const auto d = backoff_delay(42, attempt).count();
    EXPECT_GE(d, static_cast<long>(3 * base / 4)) << "attempt " << attempt;
    EXPECT_LE(d, static_cast<long>(base + base / 2 + 1))
        << "attempt " << attempt;
  }
}

// ------------------------------------------------------------ supervision

TEST_F(SupervisorTest, SuccessfulBodyPassesThrough) {
  SupervisorConfig cfg;
  const auto m = supervise_cell(cfg, "cell", "hash", [] {
    return tiny_matrix();
  });
  EXPECT_EQ(m.runs(), 1u);
}

TEST_F(SupervisorTest, RetriesThenSucceeds) {
  SupervisorConfig cfg;
  cfg.retries = 2;
  int calls = 0;
  const auto m = supervise_cell(cfg, "cell", "hash", [&] {
    if (++calls < 3) throw std::runtime_error("flaky");
    return tiny_matrix();
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(m.runs(), 1u);
}

TEST_F(SupervisorTest, QuarantineCarriesTheFailureRecord) {
  SupervisorConfig cfg;
  cfg.retries = 1;
  int calls = 0;
  try {
    (void)supervise_cell(cfg, "fig3/64t", "abcd1234", [&]() -> RunMatrix {
      ++calls;
      throw std::runtime_error("model blew up");
    });
    FAIL() << "expected CellQuarantined";
  } catch (const CellQuarantined& q) {
    EXPECT_EQ(calls, 2);  // 1 + retries
    EXPECT_EQ(q.failure.label, "fig3/64t");
    EXPECT_EQ(q.failure.hash, "abcd1234");
    EXPECT_EQ(q.failure.taxonomy, "exception");
    EXPECT_EQ(q.failure.error, "model blew up");
    EXPECT_EQ(q.failure.attempts, 2u);
  }
}

TEST_F(SupervisorTest, InjectedCellThrowIsRetriedWhenOccurrenceCounted) {
  // An @N fault fires once; the retry's attempt advances past it.
  fault::set_active_spec("cell_throw@1");
  SupervisorConfig cfg;
  cfg.retries = 1;
  int calls = 0;
  const auto m = supervise_cell(cfg, "cell", "hash", [&] {
    ++calls;
    return tiny_matrix();
  });
  EXPECT_EQ(calls, 1);  // first attempt faulted before the body ran
  EXPECT_EQ(m.runs(), 1u);
}

TEST_F(SupervisorTest, PersistentInjectedFaultQuarantines) {
  fault::set_active_spec("cell_throw:fig1*");
  SupervisorConfig cfg;
  cfg.retries = 1;
  try {
    (void)supervise_cell(cfg, "fig1/2t", "h", [] { return tiny_matrix(); });
    FAIL() << "expected CellQuarantined";
  } catch (const CellQuarantined& q) {
    EXPECT_EQ(q.failure.taxonomy, "exception");
    EXPECT_EQ(q.failure.attempts, 2u);
  }
  // Non-matching cells are untouched.
  const auto m =
      supervise_cell(cfg, "fig2/2t", "h", [] { return tiny_matrix(); });
  EXPECT_EQ(m.runs(), 1u);
}

TEST_F(SupervisorTest, TimeoutInsideBodyClassifiesAsTimeout) {
  SupervisorConfig cfg;
  cfg.timeout = std::chrono::milliseconds(20);
  try {
    (void)supervise_cell(cfg, "slow", "h", [] {
      // Simulates a repetition loop polling the armed deadline.
      for (;;) core::interruptible_stall(std::chrono::milliseconds(50));
      return tiny_matrix();  // unreachable
    });
    FAIL() << "expected CellQuarantined";
  } catch (const CellQuarantined& q) {
    EXPECT_EQ(q.failure.taxonomy, "timeout");
    EXPECT_EQ(q.failure.attempts, 1u);
  }
  // The deadline is disarmed on exit: the next cell is unaffected.
  EXPECT_FALSE(core::cell_deadline_exceeded());
}

TEST_F(SupervisorTest, SlowCellStallTripsTheTimeoutDeterministically) {
  // slow_cell:...:200ms against a 30ms budget: the injected stall burns the
  // budget before the body starts — the body must never run.
  fault::set_active_spec("slow_cell:slow*:200ms");
  SupervisorConfig cfg;
  cfg.timeout = std::chrono::milliseconds(30);
  int calls = 0;
  try {
    (void)supervise_cell(cfg, "slow/cell", "h", [&] {
      ++calls;
      return tiny_matrix();
    });
    FAIL() << "expected CellQuarantined";
  } catch (const CellQuarantined& q) {
    EXPECT_EQ(q.failure.taxonomy, "timeout");
  }
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace omv::cli
