// Differential property tests: the hot-path queries
// (NoiseModel::preemption_delay, FreqModel::factor/mean_factor/
// elapsed_for_work) against the brute-force references (sim/reference.hpp)
// over randomized event/episode sets and windows — including overlapping
// episodes, window-boundary partial overlaps, dense and empty streams.
// Every comparison is exact: each production query performs the same
// floating-point operations in the same order as its reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"
#include "sim/freq.hpp"
#include "sim/noise.hpp"
#include "sim/reference.hpp"
#include "topo/topology.hpp"

namespace omv::sim {
namespace {

TEST(HotpathDifferential, PreemptionDelayMatchesBruteForceAcrossDensities) {
  const topo::Machine machine = topo::Machine::vera();
  Rng windows(2024);
  for (const double rate : {0.0, 0.5, 40.0, 3000.0}) {
    NoiseConfig cfg = NoiseConfig::vera();
    cfg.kworker_rate_per_cpu = rate;
    NoiseModel model(machine, cfg);
    model.begin_run(7, machine.primary_threads());
    const double horizon = 2.0;
    model.materialize_to(horizon);

    for (int i = 0; i < 400; ++i) {
      const std::size_t h = windows.next_below(machine.n_threads());
      const double t0 = windows.uniform(0.0, 0.8 * horizon);
      const double t1 = t0 + windows.uniform(0.0, 0.4);
      EXPECT_EQ(model.preemption_delay(h, t0, t1),
                reference::preemption_delay(model, machine, h, t0, t1))
          << "rate " << rate << " window [" << t0 << ", " << t1 << ")";
    }
    // Degenerate and boundary windows.
    EXPECT_EQ(model.preemption_delay(0, 0.5, 0.5), 0.0);
    EXPECT_EQ(model.preemption_delay(0, 0.5, 0.4), 0.0);
    EXPECT_EQ(model.preemption_delay(machine.n_threads() + 3, 0.0, 1.0),
              0.0);
  }
}

TEST(HotpathDifferential, PreemptionDelayExactOnSparseStreams) {
  // Dardel's own sparse streams on a 2-way SMT machine, where idle
  // siblings scale every event by the SMT-absorb factor.
  const topo::Machine machine = topo::Machine::dardel();
  NoiseModel model(machine, NoiseConfig::dardel());
  model.begin_run(11, machine.primary_threads());
  model.materialize_to(3.0);
  Rng windows(77);
  for (int i = 0; i < 400; ++i) {
    const std::size_t h = windows.next_below(machine.n_threads());
    const double t0 = windows.uniform(0.0, 2.0);
    const double t1 = t0 + windows.uniform(0.0, 0.05);
    EXPECT_EQ(model.preemption_delay(h, t0, t1),
              reference::preemption_delay(model, machine, h, t0, t1));
  }
}

/// Replays team-like traffic on every HW thread of `model`'s machine and
/// requires each production answer to equal the reference. Each thread
/// walks its own sequence of windows 10 us to 5 ms long, each starting
/// where the last ended, as a thread's exec calls do; now and then one
/// re-queries from an earlier t0 (a fixed-point re-query or a rewound
/// clock). Threads take turns, so the horizon grows in the middle of every
/// sequence. Each sequence ends by rewinding to its first window, so a
/// following run's first queries land inside the last run's quiet windows.
void expect_team_traffic_exact(NoiseModel& model,
                               const topo::Machine& machine,
                               std::uint64_t window_seed, double until) {
  const std::size_t n = machine.n_threads();
  Rng windows(window_seed);
  std::vector<double> clock(n, 0.0);
  std::vector<double> first_t1(n, 0.0);
  std::size_t queries = 0;
  for (std::size_t step = 0; clock[step % n] < until; ++step) {
    const std::size_t h = step % n;
    double t0 = clock[h];
    if (windows.next_below(16) == 0) {
      t0 = std::max(0.0, t0 - windows.uniform(0.0, 5e-3));
    }
    const double t1 = t0 + 1e-5 * std::pow(500.0, windows.uniform(0.0, 1.0));
    if (step < n) first_t1[h] = t1;
    const double got = model.preemption_delay(h, t0, t1);
    ASSERT_EQ(got, reference::preemption_delay(model, machine, h, t0, t1))
        << "h " << h << " window [" << t0 << ", " << t1 << ")";
    clock[h] = t1 + got;
    ++queries;
  }
  for (std::size_t h = 0; h < n; ++h) {
    const double got = model.preemption_delay(h, 0.0, first_t1[h]);
    ASSERT_EQ(got,
              reference::preemption_delay(model, machine, h, 0.0, first_t1[h]));
  }
  EXPECT_GT(queries, 100 * n);
}

TEST(HotpathDifferential, QuietWindowsExactUnderTeamTraffic) {
  // The quiet-window shortcut must answer exactly as the full query does
  // across horizon growth and across begin_run with another seed, which
  // must forget every window of the previous run.
  // Without timer ticks (tick_duration 0, a tickless kernel) a window is
  // bounded by the next event alone, or by the horizon when no later event
  // exists yet; with ticks, it rarely reaches that far.
  const topo::Machine vera = topo::Machine::vera();
  for (const double tick : {NoiseConfig::vera().tick_duration, 0.0}) {
    for (const double rate : {0.0, 0.5, 40.0, 3000.0}) {
      NoiseConfig cfg = NoiseConfig::vera();
      cfg.kworker_rate_per_cpu = rate;
      cfg.tick_duration = tick;
      NoiseModel model(vera, cfg);
      for (const std::uint64_t seed : {7u, 8u}) {
        model.begin_run(seed, vera.primary_threads());
        expect_team_traffic_exact(model, vera, 99, 0.6);
        if (HasFatalFailure()) return;
      }
    }
  }
  // Dardel's sparse streams, with idle SMT siblings absorbing events.
  const topo::Machine dardel = topo::Machine::dardel();
  NoiseModel model(dardel, NoiseConfig::dardel());
  for (const std::uint64_t seed : {11u, 12u}) {
    model.begin_run(seed, dardel.primary_threads());
    expect_team_traffic_exact(model, dardel, 5, 0.3);
    if (HasFatalFailure()) return;
  }
}

TEST(HotpathDifferential, MeanFactorMatchesBruteForceAcrossDensities) {
  const topo::Machine machine = topo::Machine::vera();
  Rng windows(31);
  // Sweep density and dip length: long dips at high rate produce heavily
  // *overlapping* episodes, exercising the boundary-straddler paths.
  const struct {
    double rate;
    double mean;
  } cases[] = {{0.0, 0.5}, {0.5, 0.6}, {30.0, 0.2}, {400.0, 0.003},
               {200.0, 0.5}};
  for (const auto& c : cases) {
    FreqConfig cfg = FreqConfig::vera_dippy();
    cfg.episode_rate = c.rate;
    cfg.episode_mean = c.mean;
    FreqModel model(machine, cfg);
    model.begin_run(13);
    model.set_activity_domains(machine.n_numa());
    const double horizon = 3.0;
    model.materialize_to(horizon);

    for (int i = 0; i < 300; ++i) {
      const std::size_t core = windows.next_below(machine.n_cores());
      const double t0 = windows.uniform(0.0, 0.8 * horizon);
      const double t1 = t0 + windows.uniform(0.0, 0.5);
      EXPECT_EQ(model.mean_factor(core, t0, t1),
                reference::mean_factor(model, core, t0, t1))
          << "rate " << c.rate << " window [" << t0 << ", " << t1 << ")";
      EXPECT_EQ(model.factor(core, t0),
                reference::factor(model, core, t0))
          << "factor at t=" << t0;
    }
  }
}

TEST(HotpathDifferential, MeanFactorExactOnSparseDomains) {
  // A dippy Vera session across both domains over a 10 s horizon: a few
  // long episodes per domain, windows up to 1 s wide.
  const topo::Machine machine = topo::Machine::vera();
  FreqConfig cfg = FreqConfig::vera_dippy();
  FreqModel model(machine, cfg);
  model.begin_run(5);
  model.set_activity_domains(2);
  model.materialize_to(10.0);
  Rng windows(19);
  for (int i = 0; i < 300; ++i) {
    const std::size_t core = windows.next_below(machine.n_cores());
    const double t0 = windows.uniform(0.0, 8.0);
    const double t1 = t0 + windows.uniform(0.0, 1.0);
    EXPECT_EQ(model.mean_factor(core, t0, t1),
              reference::mean_factor(model, core, t0, t1));
  }
}

TEST(HotpathDifferential, MeanFactorMatchesUnderRunCap) {
  // The capped base weighs episodes against run_cap_depth, including
  // depth > base episodes that clamp to zero weight.
  const topo::Machine machine = topo::Machine::vera();
  FreqConfig cfg = FreqConfig::dardel();
  cfg.run_cap_prob = 1.0;  // always capped
  cfg.episode_rate = 300.0;
  cfg.episode_mean = 0.004;
  cfg.depth_lo = 0.85;   // straddles run_cap_depth = 0.91: both weight
  cfg.depth_hi = 0.99;   // signs occur.
  FreqModel model(machine, cfg);
  model.begin_run(3);
  model.set_load_fraction(1.0);
  ASSERT_TRUE(model.run_capped());
  model.materialize_to(2.0);
  Rng windows(101);
  for (int i = 0; i < 300; ++i) {
    const std::size_t core = windows.next_below(machine.n_cores());
    const double t0 = windows.uniform(0.0, 1.5);
    const double t1 = t0 + windows.uniform(0.0, 0.3);
    EXPECT_EQ(model.mean_factor(core, t0, t1),
              reference::mean_factor(model, core, t0, t1))
        << "capped window [" << t0 << ", " << t1 << ")";
  }
}

TEST(HotpathDifferential, ElapsedForWorkMatchesBruteForce) {
  const topo::Machine machine = topo::Machine::vera();
  for (const double rate : {0.0, 5.0, 500.0}) {
    FreqConfig cfg = FreqConfig::vera_dippy();
    cfg.episode_rate = rate;
    cfg.episode_mean = rate > 100.0 ? 0.003 : 0.1;
    FreqModel model(machine, cfg);
    model.begin_run(23);
    model.materialize_to(4.0);
    Rng windows(55);
    for (int i = 0; i < 200; ++i) {
      const std::size_t core = windows.next_below(machine.n_cores());
      const double t0 = windows.uniform(0.0, 2.0);
      const double work = windows.uniform(1e-7, 0.02);
      EXPECT_EQ(model.elapsed_for_work(core, t0, work),
                reference::elapsed_for_work(model, core, t0, work))
          << "t0=" << t0 << " work=" << work << " rate=" << rate;
    }
  }
}

TEST(HotpathDifferential, MeanFactorGuardsEmptyCoreThreads) {
  // Regression: factor() always guarded cores with no HW threads (mapping
  // them to domain 0); mean_factor dereferenced CpuSet::first() on the
  // empty set and threw. Both now share the cached core→numa table.
  const topo::Machine machine = topo::Machine::vera();
  FreqModel model(machine, FreqConfig::vera_dippy());
  model.begin_run(9);
  model.materialize_to(2.0);
  const std::size_t ghost_core = machine.n_cores() + 7;
  ASSERT_TRUE(machine.core_threads(ghost_core).empty());
  double mean = 0.0;
  EXPECT_NO_THROW(mean = model.mean_factor(ghost_core, 0.25, 0.75));
  // A ghost core resolves to domain 0 — identical to a real domain-0 core.
  std::size_t domain0_core = 0;
  ASSERT_EQ(model.core_numa(domain0_core), 0u);
  EXPECT_EQ(mean, model.mean_factor(domain0_core, 0.25, 0.75));
  EXPECT_EQ(model.factor(ghost_core, 0.5), model.factor(domain0_core, 0.5));
}

TEST(HotpathDifferential, ReferenceQueriesThrowPastMaterializedHorizon) {
  // The reference queries are pure: reading past the materialized horizon
  // used to silently return a plausible answer over an event-free future
  // (the documented PR 3 footgun). Misuse now throws std::logic_error.
  const topo::Machine machine = topo::Machine::vera();
  NoiseModel noise(machine, NoiseConfig::vera());
  noise.begin_run(7, machine.primary_threads());
  noise.materialize_to(1.0);
  const double edge = noise.materialized_horizon();
  EXPECT_GE(edge, 1.0);
  EXPECT_NO_THROW(
      (void)reference::preemption_delay(noise, machine, 0, 0.1, edge));
  EXPECT_THROW((void)reference::preemption_delay(noise, machine, 0, 0.1,
                                                 edge + 0.5),
               std::logic_error);

  FreqModel freq(machine, FreqConfig::vera_dippy());
  freq.begin_run(7);
  freq.materialize_to(1.0);
  const double fedge = freq.materialized_horizon();
  EXPECT_NO_THROW((void)reference::mean_factor(freq, 0, 0.1, fedge));
  EXPECT_THROW((void)reference::mean_factor(freq, 0, 0.1, fedge + 0.5),
               std::logic_error);
  EXPECT_THROW((void)reference::factor(freq, 0, fedge + 0.5),
               std::logic_error);
  // The degenerate-window early path still answers (it reads t0 only).
  EXPECT_NO_THROW((void)reference::mean_factor(freq, 0, 0.5, 0.5));
  // The production queries self-materialize and stay unaffected.
  EXPECT_NO_THROW((void)noise.preemption_delay(0, 0.1, edge + 2.0));
  EXPECT_NO_THROW((void)freq.mean_factor(0, 0.1, fedge + 2.0));
}

TEST(HotpathDifferential, NoiseEventsStaySortedAcrossExtensions) {
  const topo::Machine machine = topo::Machine::vera();
  NoiseConfig cfg = NoiseConfig::vera();
  cfg.kworker_rate_per_cpu = 200.0;
  NoiseModel model(machine, cfg);
  model.begin_run(17, machine.primary_threads());
  // Force many incremental horizon extensions.
  for (double t = 0.05; t < 3.0; t += 0.05) model.materialize_to(t);
  for (std::size_t h = 0; h < model.n_event_streams(); ++h) {
    const auto times = model.event_times(h);
    for (std::size_t k = 1; k < times.size(); ++k) {
      ASSERT_LE(times[k - 1], times[k]);
    }
  }
}

}  // namespace
}  // namespace omv::sim
