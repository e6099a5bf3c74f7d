// Differential property tests: the indexed hot-path queries
// (NoiseModel::preemption_delay, FreqModel::factor/mean_factor/
// elapsed_for_work) against the retained brute-force references
// (sim/reference.hpp) over randomized event/episode sets and windows —
// including overlapping episodes, window-boundary partial overlaps, dense
// streams (prefix-sum path) and empty streams.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/prefix_index.hpp"
#include "core/rng.hpp"
#include "sim/freq.hpp"
#include "sim/noise.hpp"
#include "sim/reference.hpp"
#include "topo/topology.hpp"

namespace omv::sim {
namespace {

/// Indexed results may differ from the sequential reference only where the
/// prefix-sum path engages; the compensated sums keep that drift within a
/// few ulps of the result.
constexpr double kRelTol = 1e-12;

void expect_close(double got, double want, const char* what, double t0,
                  double t1) {
  const double tol = kRelTol * std::max({1.0, std::abs(want)});
  EXPECT_NEAR(got, want, tol)
      << what << " window [" << t0 << ", " << t1 << ")";
}

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
      const double got = model.preemption_delay(h, t0, t1);
      const double want =
          reference::preemption_delay(model, machine, h, t0, t1);
      expect_close(got, want, "preemption_delay", t0, t1);
    }
    // Degenerate and boundary windows.
    EXPECT_EQ(model.preemption_delay(0, 0.5, 0.5), 0.0);
    EXPECT_EQ(model.preemption_delay(0, 0.5, 0.4), 0.0);
    EXPECT_EQ(model.preemption_delay(machine.n_threads() + 3, 0.0, 1.0),
              0.0);
  }
}

TEST(HotpathDifferential, PreemptionDelayExactOnSparseStreams) {
  // Sparse streams stay on the sequential scan path, which must be
  // bit-identical to the brute-force reference — not merely close.
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
      const double got = model.mean_factor(core, t0, t1);
      const double want = reference::mean_factor(model, core, t0, t1);
      expect_close(got, want, "mean_factor", t0, t1);
      EXPECT_EQ(model.factor(core, t0),
                reference::factor(model, core, t0))
          << "factor at t=" << t0;
    }
  }
}

TEST(HotpathDifferential, MeanFactorExactOnSparseDomains) {
  // Domains holding few episodes stay on the historical full scan —
  // bit-identical, not merely close.
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
  // The capped base uses the second weight index (run_cap_depth-relative
  // weights, including depth > base episodes that clamp to zero weight).
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
    const double got = model.mean_factor(core, t0, t1);
    const double want = reference::mean_factor(model, core, t0, t1);
    expect_close(got, want, "capped mean_factor", t0, t1);
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
      const double got = model.elapsed_for_work(core, t0, work);
      const double want = reference::elapsed_for_work(model, core, t0, work);
      const double tol = kRelTol * std::max(1.0, std::abs(want));
      EXPECT_NEAR(got, want, tol) << "elapsed_for_work t0=" << t0
                                  << " work=" << work << " rate=" << rate;
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
  // The indexed production queries self-materialize and stay unaffected.
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

TEST(PrefixSum, RangeMatchesDirectSummation) {
  stats::PrefixSum ps;
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(rng.uniform(0.0, 1e-3));
    ps.append(xs.back());
  }
  ASSERT_EQ(ps.size(), xs.size());
  Rng w(4);
  for (int q = 0; q < 200; ++q) {
    const std::size_t i = w.next_below(xs.size());
    const std::size_t j = i + w.next_below(xs.size() - i + 1);
    // Reference in extended precision: a plain double loop would itself
    // carry ~n·eps error — more than the compensated index under test.
    long double direct = 0.0L;
    for (std::size_t k = i; k < j; ++k) direct += xs[k];
    const double want = static_cast<double>(direct);
    EXPECT_NEAR(ps.range(i, j), want,
                4e-16 * std::max(1.0, std::abs(want)));
  }
  EXPECT_EQ(ps.range(0, 0), 0.0);
  ps.clear();
  EXPECT_EQ(ps.size(), 0u);
  EXPECT_EQ(ps.total(), 0.0);
}

TEST(PrefixSum, StaysConditionedOnLongStreams) {
  // The motivating failure mode: narrow windows deep into a long stream.
  // A plain running-sum difference loses ~eps·prefix absolute accuracy;
  // the compensated pairs must stay relative to the *range*.
  stats::PrefixSum ps;
  std::vector<double> xs;
  Rng rng(9);
  for (int i = 0; i < 200000; ++i) {
    xs.push_back(rng.uniform(0.9e-4, 1.1e-4));
    ps.append(xs.back());
  }
  for (std::size_t i : {std::size_t{199900}, std::size_t{100000}}) {
    long double direct = 0.0L;
    for (std::size_t k = i; k < i + 3; ++k) direct += xs[k];
    const double want = static_cast<double>(direct);
    EXPECT_NEAR(ps.range(i, i + 3), want, 1e-15 * want);
  }
}

}  // namespace
}  // namespace omv::sim
