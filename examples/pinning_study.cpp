// Example: a pinning study on a simulated 128-core Dardel node.
//
// Shows the library's experiment pipeline end-to-end: build a simulated
// platform, run the EPCC reduction micro-benchmark pinned and unpinned,
// compare the distributions with a statistical test, and print the
// characterization — the workflow behind the paper's Fig. 4.

#include <cstdio>

#include "bench_suite/syncbench_sim.hpp"
#include "core/characterize.hpp"
#include "core/executor.hpp"
#include "core/report.hpp"
#include "core/stat_tests.hpp"

int main() {
  using namespace omv;

  sim::Simulator dardel(topo::Machine::dardel(), sim::SimConfig::dardel());

  ExperimentSpec spec;
  spec.runs = 10;
  spec.reps = 50;
  spec.seed = 42;
  core::Executor serial(1);

  // Pinned: OMP_PLACES=threads, OMP_PROC_BIND=close.
  ompsim::TeamConfig pinned;
  pinned.n_threads = 128;
  pinned.places_spec = "threads";
  pinned.bind = topo::ProcBind::close;
  bench::SimSyncBench pinned_bench(dardel, pinned);
  const auto m_pinned =
      pinned_bench.run_protocol(bench::SyncConstruct::reduction, spec, serial);

  // Unpinned: the OS places and migrates threads.
  ompsim::TeamConfig unpinned = pinned;
  unpinned.bind = topo::ProcBind::none;
  bench::SimSyncBench unpinned_bench(dardel, unpinned);
  const auto m_unpinned = unpinned_bench.run_protocol(
      bench::SyncConstruct::reduction, spec, serial);

  report::Table t({"config", "grand mean (us)", "pooled cv", "max/min",
                   "signature"});
  const auto add_row = [&](const char* name, const RunMatrix& m) {
    const auto s = m.pooled_summary();
    t.add_row({name, report::fmt_fixed(s.mean, 1),
               report::fmt_fixed(s.cv, 4),
               report::fmt_fixed(s.min > 0 ? s.max / s.min : 0.0, 1),
               characterize(m).to_string()});
  };
  add_row("pinned (close)", m_pinned);
  add_row("unpinned", m_unpinned);
  std::printf("%s\n", t.render().c_str());

  const auto bf =
      stats::brown_forsythe(m_pinned.flatten(), m_unpinned.flatten());
  std::printf(
      "Brown-Forsythe variance test: F=%.2f, p=%.3g -> pinning %s the\n"
      "variability (alpha=0.05)\n",
      bf.statistic, bf.p_value,
      bf.significant ? "significantly reduces" : "does not clearly change");
  return 0;
}
