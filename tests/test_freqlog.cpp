// Tests for freqlog: trace analysis and simulator sampling.

#include "freqlog/logger.hpp"

#include <gtest/gtest.h>

namespace omv::freqlog {
namespace {

FreqTrace make_trace(std::initializer_list<double> ghz_values) {
  FreqTrace t;
  double time = 0.0;
  for (double g : ghz_values) {
    t.add({time, 0, g});
    time += 0.1;
  }
  return t;
}

TEST(FreqTrace, FractionBelow) {
  const auto t = make_trace({3.7, 3.7, 3.0, 2.9});
  // Threshold 95% of 3.7 = 3.515: two samples below.
  EXPECT_DOUBLE_EQ(t.fraction_below(3.7, 0.95), 0.5);
  EXPECT_DOUBLE_EQ(FreqTrace{}.fraction_below(3.7, 0.95), 0.0);
}

TEST(FreqTrace, PerCoreFmaxThresholds) {
  // Core 0 is a 3.7 GHz P-core, core 1 a 2.6 GHz E-core. The E-core
  // cruising at its own fmax must not count as a dip; a genuine E-core
  // dip must.
  FreqTrace t;
  t.add({0.0, 0, 3.7});
  t.add({0.0, 1, 2.6});
  t.add({0.1, 0, 3.0});   // P dip
  t.add({0.1, 1, 2.0});   // E dip
  const std::vector<double> fmax{3.7, 2.6};
  EXPECT_DOUBLE_EQ(t.fraction_below(fmax, 0.95), 0.5);
  EXPECT_EQ(t.episode_count(fmax, 0.95), 2u);
  // The machine-wide threshold would miscount the healthy E sample.
  EXPECT_DOUBLE_EQ(t.fraction_below(3.7, 0.95), 0.75);
  // Uniform table == scalar overload, bit for bit.
  const auto u = make_trace({3.7, 3.7, 3.0, 2.9});
  EXPECT_DOUBLE_EQ(u.fraction_below(std::vector<double>{3.7}, 0.95),
                   u.fraction_below(3.7, 0.95));
  // Cores beyond the table are never below.
  FreqTrace beyond;
  beyond.add({0.0, 5, 0.5});
  EXPECT_DOUBLE_EQ(beyond.fraction_below(fmax, 0.95), 0.0);
  EXPECT_EQ(beyond.episode_count(fmax, 0.95), 0u);
}

TEST(FreqTrace, Extremes) {
  const auto t = make_trace({3.0, 3.5, 2.5});
  const auto e = t.extremes();
  EXPECT_DOUBLE_EQ(e.min, 2.5);
  EXPECT_DOUBLE_EQ(e.max, 3.5);
  EXPECT_NEAR(e.mean, 3.0, 1e-12);
}

TEST(FreqTrace, EpisodeCountPerCore) {
  FreqTrace t;
  // Core 0: high, low, low, high, low -> 2 episodes below threshold.
  for (double g : {3.7, 2.0, 2.0, 3.7, 2.0}) t.add({0.0, 0, g});
  // Core 1: always high -> 0 episodes.
  for (double g : {3.7, 3.7}) t.add({0.0, 1, g});
  EXPECT_EQ(t.episode_count(3.7, 0.9), 2u);
}

TEST(FreqTrace, Append) {
  auto a = make_trace({3.0});
  const auto b = make_trace({2.0, 1.0});
  a.append(b);
  EXPECT_EQ(a.size(), 3u);
}

TEST(SampleSim, GridSampling) {
  topo::Machine m = topo::Machine::vera();
  sim::FreqModel model(m, sim::FreqConfig::flat());
  model.begin_run(1);
  const auto trace = sample_sim(model, m.n_cores(), 0.0, 1.0, 0.1);
  // 10 time points x 32 cores.
  EXPECT_EQ(trace.size(), 320u);
  EXPECT_DOUBLE_EQ(trace.extremes().min, m.max_ghz());
}

TEST(SampleSim, ZeroIntervalSafe) {
  topo::Machine m = topo::Machine::vera();
  sim::FreqModel model(m, sim::FreqConfig::flat());
  EXPECT_EQ(sample_sim(model, m.n_cores(), 0.0, 1.0, 0.0).size(), 0u);
}

TEST(SampleSim, DetectsSimulatedDips) {
  // The Fig. 6 pipeline: cross-NUMA activity -> dips -> nonzero
  // fraction_below.
  topo::Machine m = topo::Machine::vera();
  sim::FreqModel model(m, sim::FreqConfig::vera_dippy());
  model.begin_run(3);
  model.set_activity_domains(2);
  const auto trace = sample_sim(model, m.n_cores(), 0.0, 60.0, 0.05);
  EXPECT_GT(trace.fraction_below(m.max_ghz(), 0.95), 0.0);
  EXPECT_GT(trace.episode_count(m.max_ghz(), 0.95), 0u);
}

}  // namespace
}  // namespace omv::freqlog
