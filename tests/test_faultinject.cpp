// Unit tests for the deterministic fault-injection module: spec grammar,
// occurrence counting, site/label glob matching, and the process-wide plan.

#include "core/faultinject.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace omv::fault {
namespace {

// ------------------------------------------------------------------ globs

TEST(FaultGlob, MatchesSitesAndLabels) {
  EXPECT_TRUE(glob_match("cache", "cache"));
  EXPECT_FALSE(glob_match("cache", "cache2"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("fig?", "fig3"));
  EXPECT_FALSE(glob_match("fig?", "fig"));
  EXPECT_TRUE(glob_match("*side*", "sidecar"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_FALSE(glob_match("", "x"));
}

// ---------------------------------------------------------------- parsing

TEST(FaultSpec, ParsesEveryClauseKind) {
  const auto plan = FaultPlan::parse(
      "cell_throw@3, torn_write:cache@2, enospc@5, slow_cell:fig3*:200ms, "
      "cell_throw:fig1*, enospc:sidecar@1");
  ASSERT_EQ(plan.clauses().size(), 6u);
  EXPECT_EQ(plan.clauses()[0].kind, FaultKind::kCellThrow);
  EXPECT_EQ(plan.clauses()[0].occurrence, 3u);
  EXPECT_EQ(plan.clauses()[1].kind, FaultKind::kTornWrite);
  EXPECT_EQ(plan.clauses()[1].pattern, "cache");
  EXPECT_EQ(plan.clauses()[2].kind, FaultKind::kEnospc);
  EXPECT_TRUE(plan.clauses()[2].pattern.empty());
  EXPECT_EQ(plan.clauses()[3].kind, FaultKind::kSlowCell);
  EXPECT_EQ(plan.clauses()[3].pattern, "fig3*");
  EXPECT_EQ(plan.clauses()[3].delay.count(), 200);
  EXPECT_EQ(plan.clauses()[4].pattern, "fig1*");
  EXPECT_EQ(plan.clauses()[4].occurrence, 0u);  // every match
  EXPECT_EQ(plan.clauses()[5].pattern, "sidecar");
}

TEST(FaultSpec, EmptySpecDisarms) {
  EXPECT_FALSE(FaultPlan::parse("").armed());
  EXPECT_FALSE(FaultPlan::parse("  ").armed());
  EXPECT_TRUE(FaultPlan::parse("enospc@1").armed());
}

TEST(FaultSpec, MalformedSpecsThrow) {
  // A typo'd plan must never silently run a healthy campaign.
  EXPECT_THROW((void)FaultPlan::parse("cell_throw"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("cell_throw@0"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("cell_throw@x"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("torn_write@2"),
               std::invalid_argument);  // site required
  EXPECT_THROW((void)FaultPlan::parse("torn_write:cache"),
               std::invalid_argument);  // occurrence required
  EXPECT_THROW((void)FaultPlan::parse("enospc"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("slow_cell:fig3"),
               std::invalid_argument);  // duration required
  EXPECT_THROW((void)FaultPlan::parse("slow_cell:fig3:200"),
               std::invalid_argument);  // 'ms' suffix required
  EXPECT_THROW((void)FaultPlan::parse("slow_cell:fig3:0ms"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("slow_cell::200ms"),
               std::invalid_argument);  // empty glob
  EXPECT_THROW((void)FaultPlan::parse("rm_rf@1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("enospc@1,,enospc@2"),
               std::invalid_argument);  // stray comma
}

// --------------------------------------------------------- write counters

TEST(FaultPlanCounters, TornWriteFiresOnExactlyTheNthSiteMatch) {
  auto plan = FaultPlan::parse("torn_write:cache@2");
  EXPECT_EQ(plan.on_write("cache"), WriteAction::kNone);   // 1st
  EXPECT_EQ(plan.on_write("key"), WriteAction::kNone);     // other site
  EXPECT_EQ(plan.on_write("cache"), WriteAction::kTorn);   // 2nd
  EXPECT_EQ(plan.on_write("cache"), WriteAction::kNone);   // 3rd: spent
}

TEST(FaultPlanCounters, EnospcAnySiteAndPrecedenceOverTorn) {
  auto plan = FaultPlan::parse("enospc@1,torn_write:cache@1");
  // Both clauses fire on the first cache write; kFail wins.
  EXPECT_EQ(plan.on_write("cache"), WriteAction::kFail);
  EXPECT_EQ(plan.on_write("cache"), WriteAction::kNone);
}

TEST(FaultPlanCounters, EmptySiteNeverMatches) {
  auto plan = FaultPlan::parse("enospc@1");
  // Un-named writes are exempt from injection (atomicity still applies).
  EXPECT_EQ(plan.on_write(""), WriteAction::kNone);
  EXPECT_EQ(plan.on_write("cache"), WriteAction::kFail);
}

// ---------------------------------------------------------- cell attempts

TEST(FaultPlanCounters, CellThrowByOccurrence) {
  auto plan = FaultPlan::parse("cell_throw@3");
  EXPECT_EQ(plan.on_cell_attempt("a").count(), 0);
  EXPECT_EQ(plan.on_cell_attempt("b").count(), 0);
  EXPECT_THROW((void)plan.on_cell_attempt("c"), InjectedFault);
  EXPECT_EQ(plan.on_cell_attempt("d").count(), 0);  // spent
}

TEST(FaultPlanCounters, CellThrowByGlobTaxonomyIsException) {
  auto plan = FaultPlan::parse("cell_throw:fig1*");
  EXPECT_EQ(plan.on_cell_attempt("fig2/cell").count(), 0);
  try {
    (void)plan.on_cell_attempt("fig1/cell");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.taxonomy(), "exception");
  }
  // No occurrence selector: fires on every matching attempt (so a retried
  // cell keeps failing — the quarantine-path test fixture).
  EXPECT_THROW((void)plan.on_cell_attempt("fig1/cell"), InjectedFault);
}

TEST(FaultPlanCounters, SlowCellStallsAccumulate) {
  auto plan = FaultPlan::parse("slow_cell:fig3*:200ms,slow_cell:*:50ms");
  EXPECT_EQ(plan.on_cell_attempt("fig3/cell").count(), 250);
  EXPECT_EQ(plan.on_cell_attempt("fig1/cell").count(), 50);
}

TEST(FaultPlanCounters, DeterministicAcrossReplays) {
  // The same spec against the same operation sequence fires identically —
  // the property every fault-survival CI lane leans on.
  const auto run = [] {
    auto plan = FaultPlan::parse("torn_write:cache@2,cell_throw@2");
    std::string trace;
    for (const char* site : {"cache", "key", "cache", "cache"}) {
      switch (plan.on_write(site)) {
        case WriteAction::kNone: trace += 'n'; break;
        case WriteAction::kTorn: trace += 't'; break;
        case WriteAction::kFail: trace += 'f'; break;
      }
    }
    for (const char* cell : {"a", "b", "c"}) {
      try {
        (void)plan.on_cell_attempt(cell);
        trace += '.';
      } catch (const InjectedFault&) {
        trace += 'X';
      }
    }
    return trace;
  };
  EXPECT_EQ(run(), "nntn.X.");
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------------- process-wide plan

TEST(ActivePlan, SetClearAndEnvFallback) {
  clear_active_plan();
  ::unsetenv("OMNIVAR_FAULT_SPEC");
  EXPECT_FALSE(active_plan().armed());

  set_active_spec("enospc@1");
  EXPECT_TRUE(active_plan().armed());
  set_active_spec("");  // disarm
  EXPECT_FALSE(active_plan().armed());

  // A malformed spec throws and leaves the previous plan armed.
  set_active_spec("enospc@1");
  EXPECT_THROW(set_active_spec("bogus@1"), std::invalid_argument);
  EXPECT_TRUE(active_plan().armed());

  // The environment arms the plan lazily after a clear.
  clear_active_plan();
  ::setenv("OMNIVAR_FAULT_SPEC", "cell_throw@7", 1);
  EXPECT_TRUE(active_plan().armed());
  ::unsetenv("OMNIVAR_FAULT_SPEC");
  clear_active_plan();
  EXPECT_FALSE(active_plan().armed());
}

}  // namespace
}  // namespace omv::fault
