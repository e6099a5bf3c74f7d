// Example: the measurement -> characterization -> mitigation pipeline.
//
// Simulates a badly configured experiment (unpinned, SMT co-scheduled, no
// spare cores) on a Dardel-like node, characterizes the resulting
// distribution, asks the advisor for a fix, applies the recommended
// configuration, and re-measures — closing the loop the paper's conclusion
// sketches.

#include <cstdio>

#include "bench_suite/syncbench_sim.hpp"
#include "core/advisor.hpp"
#include "core/characterize.hpp"
#include "core/executor.hpp"
#include "core/report.hpp"

int main() {
  using namespace omv;

  sim::Simulator dardel(topo::Machine::dardel(), sim::SimConfig::dardel());
  ExperimentSpec spec;
  spec.runs = 8;
  spec.reps = 40;
  spec.seed = 99;
  core::Executor serial(1);

  // Step 1: the "bad" configuration — unbound threads.
  ompsim::TeamConfig bad;
  bad.n_threads = 128;
  bad.bind = topo::ProcBind::none;
  bench::SimSyncBench bad_bench(dardel, bad);
  const auto m_bad =
      bad_bench.run_protocol(bench::SyncConstruct::reduction, spec, serial);
  const auto ch_bad = characterize(m_bad);
  std::printf("observed (unpinned, 128 threads): mean %.1f us, cv %.3f, "
              "signature %s\n\n",
              m_bad.pooled_summary().mean, m_bad.pooled_summary().cv,
              ch_bad.to_string().c_str());

  // Step 2: ask the advisor.
  advisor::ObservedConfig obs;
  obs.n_threads = 128;
  obs.pinned = false;
  obs.used_smt_siblings = false;
  obs.spare_cores = 0;
  const auto advice = advisor::advise(dardel.machine(), ch_bad, obs,
                                      advisor::WorkloadKind::sync_heavy);
  std::printf("%s\n", advice.summary.c_str());
  for (const auto& r : advice.recommendations) {
    std::printf("  * %s\n      %s\n", r.action.c_str(),
                r.rationale.c_str());
    if (!r.omp_proc_bind.empty()) {
      std::printf("      OMP_NUM_THREADS=%zu OMP_PROC_BIND=%s\n",
                  r.omp_num_threads, r.omp_proc_bind.c_str());
    }
  }

  // Step 3: apply the primary recommendation and re-measure.
  const auto& rec = advice.recommendations.front();
  ompsim::TeamConfig good;
  good.n_threads = rec.omp_num_threads ? rec.omp_num_threads : 126;
  good.places_spec = rec.omp_places.empty() ? "threads" : rec.omp_places;
  good.bind = topo::ProcBind::close;
  bench::SimSyncBench good_bench(dardel, good);
  const auto m_good =
      good_bench.run_protocol(bench::SyncConstruct::reduction, spec, serial);
  const auto ch_good = characterize(m_good);

  std::printf("\nafter applying '%s' (%zu threads, close binding):\n",
              rec.action.c_str(), good.n_threads);
  std::printf("  mean %.1f us, cv %.4f, signature %s\n",
              m_good.pooled_summary().mean, m_good.pooled_summary().cv,
              ch_good.to_string().c_str());
  std::printf("  worst-case repetition improved %.0fx (%.1f -> %.1f us)\n",
              m_bad.pooled_summary().max / m_good.pooled_summary().max,
              m_bad.pooled_summary().max, m_good.pooled_summary().max);
  return 0;
}
