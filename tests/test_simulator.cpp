// Unit tests for sim/simulator: the exec primitive and config presets.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace omv::sim {
namespace {

TEST(SimConfig, Presets) {
  const auto d = SimConfig::dardel();
  const auto v = SimConfig::vera();
  const auto i = SimConfig::ideal();
  EXPECT_NE(d.costs.sched_grab_contention, v.costs.sched_grab_contention);
  EXPECT_EQ(i.noise.daemon_rate, 0.0);
  EXPECT_EQ(i.freq.episode_rate, 0.0);
}

TEST(Simulator, IdealExecIsExactWork) {
  Simulator s(topo::Machine::vera(), SimConfig::ideal());
  s.begin_run(1, topo::CpuSet::range(0, 4));
  const double done = s.exec(0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(done, 2.5);
}

TEST(Simulator, ZeroWorkIsInstant) {
  Simulator s(topo::Machine::vera(), SimConfig::ideal());
  s.begin_run(1, topo::CpuSet::range(0, 4));
  EXPECT_DOUBLE_EQ(s.exec(0, 3.0, 0.0), 3.0);
}

TEST(Simulator, ExecRejectsHwThreadOutsideMachine) {
  Simulator s(topo::Machine::vera(), SimConfig::ideal());
  s.begin_run(1, topo::CpuSet::range(0, 4));
  const std::size_t outside = s.machine().n_threads();
  EXPECT_THROW((void)s.exec(outside, 0.0, 1e-3), std::out_of_range);
  EXPECT_THROW((void)s.exec_scaled(outside, 0.0, 1e-3, 1.0),
               std::out_of_range);
}

TEST(Simulator, WorkScaleApplied) {
  auto cfg = SimConfig::ideal();
  cfg.costs.work_scale = 1.07;
  Simulator s(topo::Machine::vera(), cfg);
  s.begin_run(1, topo::CpuSet::range(0, 4));
  EXPECT_NEAR(s.exec(0, 0.0, 1.0), 1.07, 1e-12);
}

/// 1 P-core (SMT-2) + 1 E-core (SMT-1): os 0 = P primary, os 1 = E,
/// os 2 = P second sibling.
topo::Machine tiny_hybrid() {
  std::vector<topo::CoreClass> classes{{"P", 2.5, 3.8}, {"E", 1.8, 2.6}};
  std::vector<topo::HwThread> t(3);
  t[0] = {0, 0, 0, 0, 0, 0};
  t[1] = {1, 1, 1, 0, 0, 1};
  t[2] = {2, 0, 0, 0, 1, 0};
  return topo::Machine("hybrid", std::move(t), std::move(classes));
}

TEST(Simulator, ClassWorkRateStretchesEfficiencyCores) {
  auto cfg = SimConfig::ideal();
  cfg.class_work_rate = {1.0, 0.5};  // E cores at half speed
  Simulator s(tiny_hybrid(), cfg);
  s.begin_run(1, topo::CpuSet::range(0, 2));
  const double on_p = s.exec(0, 0.0, 1.0);
  const double on_e = s.exec(1, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(on_p, 1.0);
  EXPECT_DOUBLE_EQ(on_e, 2.0);
  // The P sibling shares core 0's class rate.
  EXPECT_DOUBLE_EQ(s.exec(2, 0.0, 1.0), 1.0);
}

TEST(Simulator, EmptyClassWorkRateIsNominalEverywhere) {
  Simulator s(tiny_hybrid(), SimConfig::ideal());
  s.begin_run(1, topo::CpuSet::range(0, 2));
  EXPECT_DOUBLE_EQ(s.exec(1, 0.0, 1.0), 1.0);
}

TEST(Simulator, RejectsNonPositiveClassWorkRate) {
  auto cfg = SimConfig::ideal();
  cfg.class_work_rate = {1.0, 0.0};
  EXPECT_THROW(Simulator(tiny_hybrid(), cfg), std::invalid_argument);
}

TEST(Simulator, OversubscriptionShareScalesTime) {
  Simulator s(topo::Machine::vera(), SimConfig::ideal());
  s.begin_run(1, topo::CpuSet::range(0, 4));
  const double solo = s.exec(0, 0.0, 1.0, 1);
  const double shared = s.exec(0, 0.0, 1.0, 2);
  EXPECT_NEAR(shared, solo * 2.0, 1e-9);
}

TEST(Simulator, SmtBusySlowsExecution) {
  auto cfg = SimConfig::ideal();
  cfg.costs.smt_throughput = 0.8;
  cfg.costs.smt_jitter = 0.0;
  Simulator s(topo::Machine::dardel(), cfg);
  s.begin_run(1, topo::CpuSet::range(0, 8));
  const double solo = s.exec(0, 0.0, 1.0, 1, false);
  const double smt = s.exec(0, 0.0, 1.0, 1, true);
  EXPECT_NEAR(smt, solo / 0.8, 1e-9);
}

TEST(Simulator, NoiseExtendsExecution) {
  auto cfg = SimConfig::ideal();
  cfg.noise.tick_duration = 10e-6;
  cfg.noise.tick_period = 0.001;  // heavy tick load: 1% of time
  Simulator s(topo::Machine::vera(), cfg);
  s.begin_run(1, topo::CpuSet::range(0, 4));
  const double done = s.exec(0, 0.0, 1.0);
  EXPECT_GT(done, 1.005);
  EXPECT_LT(done, 1.05);
}

TEST(Simulator, FixedPointCatchesNoiseInExtension) {
  // Work of 1s with 1% tick load: the extension itself contains ticks.
  auto cfg = SimConfig::ideal();
  cfg.noise.tick_duration = 10e-6;
  cfg.noise.tick_period = 0.001;
  Simulator s(topo::Machine::vera(), cfg);
  s.begin_run(1, topo::CpuSet::range(0, 4));
  const double elapsed = s.exec(0, 0.0, 1.0) - 0.0;
  // Converged value ~ 1 / (1 - 0.01): the geometric series, not just 1.01.
  EXPECT_NEAR(elapsed, 1.0101, 0.002);
}

TEST(Simulator, DeterministicPerRunSeed) {
  Simulator a(topo::Machine::dardel(), SimConfig::dardel());
  Simulator b(topo::Machine::dardel(), SimConfig::dardel());
  a.begin_run(42, topo::CpuSet::range(0, 128));
  b.begin_run(42, topo::CpuSet::range(0, 128));
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(a.exec(i, 0.0, 0.01), b.exec(i, 0.0, 0.01));
  }
}

TEST(Simulator, SmtThroughputSampleBounded) {
  Simulator s(topo::Machine::dardel(), SimConfig::dardel());
  s.begin_run(7, topo::CpuSet::range(0, 8));
  for (int i = 0; i < 1000; ++i) {
    const double v = s.sample_smt_throughput();
    EXPECT_GE(v, 0.35);
    EXPECT_LE(v, 0.95);
  }
}

}  // namespace
}  // namespace omv::sim
