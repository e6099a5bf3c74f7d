// Example: frequency logging during a benchmark, the paper's Section 5.4
// methodology as a library workflow, on a simulated Vera node: schedbench
// runs on a team split across both NUMA domains, then every core's
// frequency is sampled at 100 Hz along the team's simulated timeline and
// the trace is summarized (the paper's dip regions).

#include <cstdio>

#include "bench_suite/schedbench_sim.hpp"
#include "freqlog/logger.hpp"

int main() {
  using namespace omv;

  std::printf("Logging core frequencies on a simulated Vera node while "
              "schedbench runs across both NUMA domains.\n\n");
  sim::SimConfig cfg = sim::SimConfig::vera();
  cfg.freq = sim::FreqConfig::vera_dippy();
  sim::Simulator s(topo::Machine::vera(), cfg);

  ompsim::TeamConfig team_cfg;
  team_cfg.n_threads = 16;
  team_cfg.places_spec = "{0}:8:1,{16}:8:1";  // cross-NUMA: dips expected
  team_cfg.bind = topo::ProcBind::close;
  bench::SimSchedBench sb(s, team_cfg);

  ompsim::SimTeam team(s, team_cfg, 1);
  team.begin_run(1);
  for (int rep = 0; rep < 20; ++rep) {
    (void)sb.rep_time_us(team, ompsim::Schedule::static_, 1);
  }

  const auto trace =
      freqlog::sample_sim(s.freq(), s.machine().n_cores(), 0.0, team.now(),
                          0.01);
  const auto e = trace.extremes();
  const double fmax = s.machine().max_ghz();
  std::printf("simulated trace over %.2f s of benchmark time:\n",
              team.now());
  std::printf("  %zu samples, min %.2f / mean %.2f / max %.2f GHz\n",
              trace.size(), e.min, e.mean, e.max);
  std::printf("  %.1f%% of samples below 0.95*fmax, %zu dip episodes\n",
              trace.fraction_below(fmax, 0.95) * 100.0,
              trace.episode_count(fmax, 0.95));
  return 0;
}
