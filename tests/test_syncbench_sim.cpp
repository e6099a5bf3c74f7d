// Tests for bench_suite/syncbench_sim: calibration, protocol shape, the
// width invariance of the sharded protocol, and the pinning/noise
// behaviours the paper reports for synchronization constructs.

#include "bench_suite/syncbench_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/executor.hpp"
#include "scenario/registry.hpp"

namespace omv::bench {
namespace {

ompsim::TeamConfig team_cfg(std::size_t threads,
                            topo::ProcBind bind = topo::ProcBind::close) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = threads;
  cfg.bind = bind;
  return cfg;
}

ExperimentSpec quick_spec(std::uint64_t seed) {
  ExperimentSpec spec;
  spec.runs = 5;
  spec.reps = 20;
  spec.warmup = 1;
  spec.seed = seed;
  return spec;
}

TEST(SimSyncBench, InnerrepsCalibratedToTestTime) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  SimSyncBench sb(s, team_cfg(128));
  for (auto c : all_sync_constructs()) {
    const auto inner = sb.innerreps(c);
    const double instance = sb.ideal_instance_us(c);
    EXPECT_GE(inner, 1u);
    // One repetition should land near test_time (within 2x).
    const double rep = instance * static_cast<double>(inner);
    if (inner > 1 && inner < 1000000) {
      EXPECT_GT(rep, 400.0) << sync_construct_name(c);
      EXPECT_LT(rep, 2100.0) << sync_construct_name(c);
    }
  }
}

TEST(SimSyncBench, IdealRepTimeNearTestTime) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  SimSyncBench sb(s, team_cfg(64));
  ompsim::SimTeam team(s, team_cfg(64), 1);
  team.begin_run(1);
  const double rep = sb.rep_time_us(team, SyncConstruct::reduction);
  EXPECT_GT(rep, 300.0);
  EXPECT_LT(rep, 3000.0);
}

TEST(SimSyncBench, ReductionMostExpensiveOfTeamWideConstructs) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  SimSyncBench sb(s, team_cfg(128));
  // Reduction > parallel > barrier in per-instance cost.
  EXPECT_GT(sb.ideal_instance_us(SyncConstruct::reduction),
            sb.ideal_instance_us(SyncConstruct::parallel));
  EXPECT_GT(sb.ideal_instance_us(SyncConstruct::parallel),
            sb.ideal_instance_us(SyncConstruct::barrier));
}

TEST(SimSyncBench, ProtocolShape) {
  sim::Simulator s(topo::Machine::vera(), sim::SimConfig::vera());
  SimSyncBench sb(s, team_cfg(8));
  const auto spec = quick_spec(11);
  const auto m = sb.run_protocol(SyncConstruct::barrier, spec);
  EXPECT_EQ(m.runs(), 5u);
  EXPECT_EQ(m.run(0).size(), 20u);
  EXPECT_GT(m.pooled_summary().mean, 0.0);
}

TEST(SimSyncBench, DeterministicProtocol) {
  sim::Simulator s1(topo::Machine::vera(), sim::SimConfig::vera());
  sim::Simulator s2(topo::Machine::vera(), sim::SimConfig::vera());
  SimSyncBench a(s1, team_cfg(8));
  SimSyncBench b(s2, team_cfg(8));
  const auto spec = quick_spec(21);
  const auto ma = a.run_protocol(SyncConstruct::reduction, spec);
  const auto mb = b.run_protocol(SyncConstruct::reduction, spec);
  for (std::size_t r = 0; r < ma.runs(); ++r) {
    EXPECT_EQ(ma.run(r).size(), mb.run(r).size());
    for (std::size_t k = 0; k < ma.run(r).size(); ++k) {
      EXPECT_DOUBLE_EQ(ma.run(r)[k], mb.run(r)[k]);
    }
  }
}

// The sharded protocol derives each run's whole state from its run seed, so
// the matrix is bit-identical at one and two workers.
void expect_width_invariant(const scenario::ScenarioSpec& scn) {
  static core::Executor one_worker(1);
  static core::Executor two_workers(2);
  const topo::Machine machine = scn.machine.build();
  ompsim::TeamConfig cfg;
  cfg.n_threads = std::min<std::size_t>(8, machine.n_cores());
  cfg.places_spec = "threads";
  cfg.bind = topo::ProcBind::close;
  ExperimentSpec spec;
  spec.name = "width";
  spec.runs = 3;
  spec.reps = 6;
  spec.warmup = 1;
  spec.seed = 1;
  sim::Simulator base(machine, scn.sim);
  SimSyncBench sb(base, cfg);
  const auto serial =
      sb.run_protocol(SyncConstruct::reduction, spec, one_worker);
  const auto sharded =
      sb.run_protocol(SyncConstruct::reduction, spec, two_workers);
  ASSERT_EQ(sharded.runs(), serial.runs()) << scn.name;
  for (std::size_t r = 0; r < serial.runs(); ++r) {
    ASSERT_EQ(sharded.run(r).size(), serial.run(r).size()) << scn.name;
    for (std::size_t k = 0; k < serial.run(r).size(); ++k) {
      // Exact double equality: bit-identical, not merely close.
      ASSERT_EQ(sharded.run(r)[k], serial.run(r)[k])
          << scn.name << " run " << r << " rep " << k;
    }
  }
}

TEST(SimSyncBench, ShardedProtocolIsWidthInvariantOnEveryPreset) {
  for (const auto& scn : scenario::ScenarioRegistry::instance().all()) {
    expect_width_invariant(scn);
  }
}

TEST(SimSyncBench, ShardedProtocolIsWidthInvariantOnDegenerateScenarioFile) {
  const auto path = std::filesystem::path(__FILE__).parent_path()
                        .parent_path() /
                    "scenarios" / "degenerate-pe.scenario";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  expect_width_invariant(scenario::load_file(path.string()));
}

TEST(SimSyncBench, PinningReducesVariability) {
  // The paper's Fig. 4 centerpiece, as a regression test.
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::dardel());
  const auto spec = quick_spec(31);

  SimSyncBench pinned(s, team_cfg(128, topo::ProcBind::close));
  const auto mp = pinned.run_protocol(SyncConstruct::reduction, spec);

  SimSyncBench unpinned(s, team_cfg(128, topo::ProcBind::none));
  const auto mu = unpinned.run_protocol(SyncConstruct::reduction, spec);

  EXPECT_LT(mp.pooled_summary().cv, mu.pooled_summary().cv);
  EXPECT_LT(mp.pooled_summary().max, mu.pooled_summary().max);
  // Unpinned worst case is orders of magnitude above the pinned mean.
  EXPECT_GT(mu.pooled_summary().max, mp.pooled_summary().mean * 50.0);
}

TEST(SimSyncBench, OverheadComputation) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  SimSyncBench sb(s, team_cfg(16));
  const double rep = 1000.0;
  const double ov = sb.overhead_from_rep_us(rep, SyncConstruct::barrier);
  // Overhead strictly below the raw per-instance time (reference > 0).
  EXPECT_LT(ov, rep / static_cast<double>(
                        sb.innerreps(SyncConstruct::barrier)));
}

TEST(SimSyncBench, GroupsBoundSimulationCost) {
  // groups=4 and groups=64 should give similar means on an ideal sim.
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  SimSyncBench coarse(s, team_cfg(32), EpccParams::syncbench(), 4);
  SimSyncBench fine(s, team_cfg(32), EpccParams::syncbench(), 64);
  ompsim::SimTeam t1(s, team_cfg(32), 1);
  t1.begin_run(1);
  const double a = coarse.rep_time_us(t1, SyncConstruct::barrier);
  ompsim::SimTeam t2(s, team_cfg(32), 1);
  t2.begin_run(1);
  const double b = fine.rep_time_us(t2, SyncConstruct::barrier);
  EXPECT_NEAR(a, b, a * 0.05);
}

}  // namespace
}  // namespace omv::bench
