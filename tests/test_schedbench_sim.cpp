// Tests for bench_suite/schedbench_sim, including the Table 2 calibration.

#include "bench_suite/schedbench_sim.hpp"

#include <gtest/gtest.h>

#include "core/executor.hpp"

namespace omv::bench {
namespace {

ompsim::TeamConfig team_cfg(std::size_t threads) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = threads;
  cfg.bind = topo::ProcBind::close;
  return cfg;
}

// A one-worker executor: every protocol run executes inline, in order.
core::Executor& one_worker() {
  static core::Executor executor(1);
  return executor;
}

ExperimentSpec quick_spec(std::uint64_t seed, std::size_t runs = 3,
                          std::size_t reps = 5) {
  ExperimentSpec spec;
  spec.runs = runs;
  spec.reps = reps;
  spec.warmup = 0;
  spec.seed = seed;
  return spec;
}

TEST(SimSchedBench, CoarsenBoundsGrabs) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::dardel());
  SimSchedBench sb(s, team_cfg(254), EpccParams::schedbench(), 20000);
  // 254 * 8192 chunk-1 grabs must coarsen to stay near the budget.
  const auto c = sb.coarsen_for(1);
  EXPECT_GE(c, 100u);
  const std::size_t grabs = 254 * 8192 / c;
  EXPECT_LE(grabs, 25000u);
}

TEST(SimSchedBench, NoCoarseningAtSmallScale) {
  sim::Simulator s(topo::Machine::vera(), sim::SimConfig::vera());
  SimSchedBench sb(s, team_cfg(2), EpccParams::schedbench(), 20000);
  EXPECT_EQ(sb.coarsen_for(8192), 1u);
}

TEST(SimSchedBench, BaseWorkDominatesRepTime) {
  // One rep is itersperthr x delay ~= 123 ms plus overhead.
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  SimSchedBench sb(s, team_cfg(4));
  ompsim::SimTeam team(s, team_cfg(4), 1);
  team.begin_run(1);
  const double rep = sb.rep_time_us(team, ompsim::Schedule::static_, 1);
  EXPECT_GT(rep, 120000.0);
  EXPECT_LT(rep, 130000.0);
}

TEST(SimSchedBench, Table2DardelCalibration) {
  // Paper Table 2 (Dardel, dynamic_1): ~124.0 ms at 4 threads, ~154.2 ms at
  // 254 threads. The simulator should land within ~5%.
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::dardel());
  {
    SimSchedBench sb(s, team_cfg(4));
    const auto m =
        sb.run_protocol(ompsim::Schedule::dynamic, 1, quick_spec(2),
                        one_worker());
    EXPECT_NEAR(m.pooled_summary().median, 124000.0, 6000.0);
  }
  {
    SimSchedBench sb(s, team_cfg(254));
    const auto m =
        sb.run_protocol(ompsim::Schedule::dynamic, 1, quick_spec(2),
                        one_worker());
    EXPECT_NEAR(m.pooled_summary().median, 154200.0, 10000.0);
  }
}

TEST(SimSchedBench, Table2VeraCalibration) {
  // Paper Table 2 (Vera, dynamic_1): ~136.5 ms at 4 threads, ~164.7 ms at
  // 30 threads.
  sim::Simulator s(topo::Machine::vera(), sim::SimConfig::vera());
  {
    SimSchedBench sb(s, team_cfg(4));
    const auto m =
        sb.run_protocol(ompsim::Schedule::dynamic, 1, quick_spec(3),
                        one_worker());
    EXPECT_NEAR(m.pooled_summary().median, 136500.0, 7000.0);
  }
  {
    SimSchedBench sb(s, team_cfg(30));
    const auto m =
        sb.run_protocol(ompsim::Schedule::dynamic, 1, quick_spec(3),
                        one_worker());
    EXPECT_NEAR(m.pooled_summary().median, 164700.0, 10000.0);
  }
}

TEST(SimSchedBench, DynamicOverheadGrowsWithThreads) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  double prev = 0.0;
  for (std::size_t t : {4u, 64u, 254u}) {
    SimSchedBench sb(s, team_cfg(t));
    ompsim::SimTeam team(s, team_cfg(t), 1);
    team.begin_run(1);
    const double rep = sb.rep_time_us(team, ompsim::Schedule::dynamic, 1);
    EXPECT_GT(rep, prev) << t;
    prev = rep;
  }
}

TEST(SimSchedBench, StaticCheaperThanDynamicChunk1) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  SimSchedBench sb(s, team_cfg(128));
  ompsim::SimTeam t1(s, team_cfg(128), 1);
  t1.begin_run(1);
  const double stat = sb.rep_time_us(t1, ompsim::Schedule::static_, 1);
  ompsim::SimTeam t2(s, team_cfg(128), 1);
  t2.begin_run(1);
  const double dyn = sb.rep_time_us(t2, ompsim::Schedule::dynamic, 1);
  EXPECT_LT(stat, dyn);
}

TEST(SimSchedBench, LargerChunksReduceDynamicOverhead) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  SimSchedBench sb(s, team_cfg(64));
  ompsim::SimTeam t1(s, team_cfg(64), 1);
  t1.begin_run(1);
  const double chunk1 = sb.rep_time_us(t1, ompsim::Schedule::dynamic, 1);
  ompsim::SimTeam t2(s, team_cfg(64), 1);
  t2.begin_run(1);
  const double chunk64 = sb.rep_time_us(t2, ompsim::Schedule::dynamic, 64);
  EXPECT_LT(chunk64, chunk1);
}

TEST(SimSchedBench, GuidedBetweenStaticAndDynamic) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  SimSchedBench sb(s, team_cfg(64));
  ompsim::SimTeam t1(s, team_cfg(64), 1);
  t1.begin_run(1);
  const double stat = sb.rep_time_us(t1, ompsim::Schedule::static_, 1);
  ompsim::SimTeam t2(s, team_cfg(64), 1);
  t2.begin_run(1);
  const double gui = sb.rep_time_us(t2, ompsim::Schedule::guided, 1);
  ompsim::SimTeam t3(s, team_cfg(64), 1);
  t3.begin_run(1);
  const double dyn = sb.rep_time_us(t3, ompsim::Schedule::dynamic, 1);
  EXPECT_LE(stat, gui);
  EXPECT_LE(gui, dyn);
}

TEST(SimSchedBench, ProtocolDeterministic) {
  sim::Simulator s1(topo::Machine::vera(), sim::SimConfig::vera());
  sim::Simulator s2(topo::Machine::vera(), sim::SimConfig::vera());
  SimSchedBench a(s1, team_cfg(8));
  SimSchedBench b(s2, team_cfg(8));
  const auto ma = a.run_protocol(ompsim::Schedule::guided, 1,
                                 quick_spec(5, 2, 3), one_worker());
  const auto mb = b.run_protocol(ompsim::Schedule::guided, 1,
                                 quick_spec(5, 2, 3), one_worker());
  EXPECT_DOUBLE_EQ(ma.pooled_summary().mean, mb.pooled_summary().mean);
}

// Each run's whole state derives from its run seed, so the matrix is the
// same bytes at one and four workers.
TEST(SimSchedBench, ShardedProtocolIsWidthInvariant) {
  sim::Simulator s(topo::Machine::vera(), sim::SimConfig::vera());
  SimSchedBench sb(s, team_cfg(8));
  core::Executor four_workers(4);
  const auto spec = quick_spec(13, 4, 3);
  for (const auto kind :
       {ompsim::Schedule::dynamic, ompsim::Schedule::guided}) {
    const auto serial = sb.run_protocol(kind, 1, spec, one_worker());
    const auto sharded = sb.run_protocol(kind, 1, spec, four_workers);
    ASSERT_EQ(serial.runs(), 4u);
    EXPECT_EQ(sharded.rows(), serial.rows()) << ompsim::schedule_name(kind);
  }
}

}  // namespace
}  // namespace omv::bench
