// Team compute phase vs a test-local per-thread exec loop.
//
// SimTeam::compute advances every thread clock with one Simulator::exec
// call per thread, in thread order. These tests pin that contract against
// a loop written here from the placement alone — same clocks, same RNG
// draw order (threads with no work still draw their SMT-throughput
// sample), same lazy noise/frequency materialization — on every catalog
// preset, on the committed degenerate asymmetric scenario file, and on
// unpinned teams. (The case names keep their "Batched" prefix so their
// results stay comparable across the suite's history.)

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "omp_model/team.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "topo/proc_bind.hpp"

namespace omv::ompsim {
namespace {

/// The bench harnesses' "full but not oversaturated" team size
/// (harness::full_team), restated here so the test runs the spans the
/// harnesses run.
std::size_t full_team(const topo::Machine& m) {
  return std::min(m.n_cores(),
                  m.n_threads() > 2 ? m.n_threads() - 2 : m.n_threads());
}

TeamConfig pinned(std::size_t threads) {
  TeamConfig cfg;
  cfg.n_threads = threads;
  cfg.places_spec = "threads";
  cfg.bind = topo::ProcBind::close;
  return cfg;
}

/// The reference compute phase: one Simulator::exec per thread, in thread
/// order, with each thread's placement (HW thread, share, SMT state).
void exec_loop(SimTeam& team, std::span<const double> work) {
  const sim::Placement& pl = team.placement();
  std::vector<double> clocks(team.clocks().begin(), team.clocks().end());
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    clocks[i] = team.simulator().exec(pl.hw[i], clocks[i], work[i],
                                      pl.share[i], pl.smt_coscheduled[i]);
  }
  team.set_clocks(clocks);
}

/// Drives one team through a representative phase mix (uniform work,
/// heterogeneous spans with zero-work holes, barriers, a fork/join pair,
/// several repetitions) and records every thread clock after each compute.
/// `use_team` selects SimTeam::compute or the test-local exec_loop.
std::vector<double> drive(SimTeam& team, bool use_team) {
  const auto step_span = [&](std::span<const double> work) {
    if (use_team) {
      team.compute(work);
    } else {
      exec_loop(team, work);
    }
  };
  const auto step_uniform = [&](double work) {
    if (use_team) {
      team.compute(work);
    } else {
      const std::vector<double> all(team.size(), work);
      exec_loop(team, all);
    }
  };

  std::vector<double> trace;
  const auto snap = [&] {
    for (const double c : team.clocks()) trace.push_back(c);
  };

  team.begin_run(3);
  std::vector<double> hetero(team.size());
  for (std::size_t i = 0; i < hetero.size(); ++i) {
    // Zero-work holes every third thread: exec still draws the SMT
    // throughput sample before its early-out, so the RNG sequence (and
    // with it every later clock) is sensitive to getting these right.
    hetero[i] = (i % 3 == 2) ? 0.0 : 1e-5 * static_cast<double>(i + 1);
  }
  for (int rep = 0; rep < 3; ++rep) {
    team.begin_rep();
    team.fork();
    step_uniform(1e-4);
    snap();
    team.barrier();
    step_span(hetero);
    snap();
    team.barrier();
    step_uniform(2e-3);
    snap();
    team.join();
    snap();
  }
  return trace;
}

/// Runs the drive sequence twice on identically seeded simulators — once
/// through SimTeam::compute, once through exec_loop — and demands
/// bit-identical clock traces.
void expect_compute_matches_loop(const scenario::ScenarioSpec& spec,
                                 const TeamConfig& cfg) {
  const topo::Machine machine = spec.machine.build();
  sim::Simulator sim_team(machine, spec.sim);
  SimTeam team(sim_team, cfg, 1);
  sim::Simulator sim_loop(machine, spec.sim);
  SimTeam team_loop(sim_loop, cfg, 1);

  const std::vector<double> got = drive(team, /*use_team=*/true);
  const std::vector<double> want = drive(team_loop, /*use_team=*/false);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], want[k])
        << spec.name << ": clock trace diverged at sample " << k << " of "
        << got.size();
  }
}

TEST(TeamBatch, BatchedComputeMatchesLoopOnEveryPreset) {
  for (const auto& spec : scenario::ScenarioRegistry::instance().all()) {
    expect_compute_matches_loop(
        spec, pinned(full_team(spec.machine.build())));
  }
}

TEST(TeamBatch, BatchedComputeMatchesLoopOnDegenerateScenarioFile) {
  const auto path = std::filesystem::path(__FILE__).parent_path()
                        .parent_path() /
                    "scenarios" / "degenerate-pe.scenario";
  ASSERT_TRUE(std::filesystem::exists(path))
      << "committed scenario file missing: " << path;
  const scenario::ScenarioSpec spec = scenario::load_file(path.string());
  const topo::Machine machine = spec.machine.build();
  // 3 HW threads, 2 cores: run the team at every legal size.
  for (std::size_t t = 1; t <= machine.n_threads(); ++t) {
    expect_compute_matches_loop(spec, pinned(t));
  }
}

TEST(TeamBatch, BatchedComputeMatchesLoopUnpinned) {
  // Unpinned teams re-place threads between repetitions (shares and SMT
  // co-scheduling change from rep to rep), drawing from a placement RNG
  // that must stay in step across the two implementations.
  const scenario::ScenarioSpec spec =
      scenario::ScenarioRegistry::instance().get("noisy-cloud");
  TeamConfig cfg;
  cfg.n_threads = full_team(spec.machine.build());
  cfg.bind = topo::ProcBind::none;
  expect_compute_matches_loop(spec, cfg);
}

}  // namespace
}  // namespace omv::ompsim
