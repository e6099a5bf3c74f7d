// Quickstart: measure and characterize the execution-time variability of
// an OpenMP parallel-for with omnivar, on a simulated node.
//
//   $ ./quickstart
//
// Runs EPCC schedbench's `parallel for schedule(static, 1)` on a 16-thread
// close-bound team of a simulated Vera node under the paper's protocol
// (several runs x repetitions), prints the per-run statistics, the
// between-run vs within-run variance split, and the qualitative
// variability signature. Every time is simulated, so the output is the
// same on every run and every host. The runs execute on a one-worker
// executor, which runs them inline in order; a wider executor runs them
// concurrently and prints the same bytes.

#include <cstdio>
#include <string>

#include "bench_suite/schedbench_sim.hpp"
#include "core/characterize.hpp"
#include "core/executor.hpp"
#include "core/report.hpp"

int main() {
  using namespace omv;

  sim::Simulator vera(topo::Machine::vera(), sim::SimConfig::vera());
  ompsim::TeamConfig team;
  team.n_threads = 16;
  team.places_spec = "cores";
  team.bind = topo::ProcBind::close;
  std::printf("omnivar quickstart: measuring a parallel-for "
              "schedule(static, 1) with %zu threads on a simulated %s "
              "node\n\n",
              team.n_threads, vera.machine().name().c_str());

  // The kernel under test: one repetition is one parallel-for over
  // 16 x 8192 iterations of a 15 us delay (Table 1's schedbench column).
  bench::SimSchedBench sched(vera, team);

  ExperimentSpec spec;
  spec.runs = 5;
  spec.reps = 30;
  spec.warmup = 3;
  core::Executor serial(1);
  const RunMatrix m =
      sched.run_protocol(ompsim::Schedule::static_, 1, spec, serial);

  report::Table t({"run #", "mean (us)", "min (us)", "max (us)", "cv"});
  for (std::size_t r = 0; r < m.runs(); ++r) {
    const auto s = m.run_summary(r);
    t.add_row({std::to_string(r + 1), report::fmt_fixed(s.mean, 1),
               report::fmt_fixed(s.min, 1), report::fmt_fixed(s.max, 1),
               report::fmt_fixed(s.cv, 4)});
  }
  std::printf("%s\n", t.render().c_str());

  const auto vc = m.variance_components();
  std::printf("between-run variance share (ICC): %.1f%%  (F=%.2f, p=%.3g)\n",
              vc.icc * 100.0, vc.f_statistic, vc.p_value);

  const auto c = characterize(m);
  std::printf("variability signature: %s\n", c.to_string().c_str());
  std::printf("pooled: mean %.1f us, cv %.4f, norm min/max %.3f/%.3f\n",
              c.pooled.mean, c.pooled.cv, c.pooled.norm_min(),
              c.pooled.norm_max());
  std::printf("\nHints: unbind the team (bind = none), fill the node (32 "
              "threads) or switch to\nschedule(dynamic) to watch the "
              "variability move — see the paper reproduction in bench/.\n");
  return 0;
}
