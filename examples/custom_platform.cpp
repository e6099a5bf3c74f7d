// Example: author a custom platform as a *scenario file* and sweep a
// scaling study on it.
//
// Models a hypothetical single-socket 48-core machine with 4 NUMA domains
// and SMT-2 — written out in the scenario-file format, loaded back through
// the scenario layer (exactly what `omnivar --scenario my.scenario` does)
// — and asks: at which thread count does the reduction construct's
// variability take off, and is it better to use spread or close binding?

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_suite/syncbench_sim.hpp"
#include "core/executor.hpp"
#include "core/report.hpp"
#include "scenario/registry.hpp"

int main() {
  using namespace omv;

  // 1) Author the scenario: inherit Dardel's noise/cost calibration, swap
  //    in the custom geometry and a narrower memory system. This is the
  //    same key=value format `omnivar --scenario <file>` accepts.
  const char* scenario_text =
      "# a hypothetical desktop-EPYC-like box\n"
      "name = my-epyc\n"
      "display = MyEpyc\n"
      "base = dardel\n"
      "machine.label = my-epyc\n"
      "machine.sockets = 1\n"
      "machine.numa_per_socket = 4\n"
      "machine.cores_per_numa = 12\n"
      "machine.smt = 2\n"
      "machine.base_ghz = 2.4\n"
      "machine.max_ghz = 3.6\n"
      "mem.domain_gbps = 40\n";
  const std::string path = "my_epyc.scenario";
  {
    std::ofstream f(path, std::ios::binary);
    f << scenario_text;
  }

  // 2) Load it back through the scenario layer and materialize.
  const auto spec = scenario::load_file(path);
  sim::Simulator s(spec.machine.build(), spec.sim);
  std::remove(path.c_str());

  ExperimentSpec espec;
  espec.runs = 8;
  espec.reps = 40;
  espec.seed = 7;
  if (const char* q = std::getenv("OMNIVAR_QUICK"); q && q[0] == '1') {
    espec.runs = 3;
    espec.reps = 10;
  }

  std::printf("Scenario %s [%s]: %s\n", spec.display.c_str(),
              spec.fingerprint().c_str(), spec.geometry_summary().c_str());
  std::printf("Custom platform: %zu cores, %zu NUMA domains, SMT-%zu\n\n",
              s.machine().n_cores(), s.machine().n_numa(),
              s.machine().max_smt_per_core());

  core::Executor serial(1);
  report::Series series("threads",
                        {"close_us", "close_cv", "spread_us", "spread_cv"});
  for (std::size_t t : {4ul, 8ul, 16ul, 24ul, 36ul, 46ul}) {
    std::vector<double> row;
    for (auto bind : {topo::ProcBind::close, topo::ProcBind::spread}) {
      ompsim::TeamConfig team;
      team.n_threads = t;
      team.places_spec = "cores";  // one place per physical core
      team.bind = bind;
      bench::SimSyncBench sb(s, team);
      const auto m =
          sb.run_protocol(bench::SyncConstruct::reduction, espec, serial);
      const double per_instance =
          m.grand_mean() /
          static_cast<double>(sb.innerreps(bench::SyncConstruct::reduction));
      row.push_back(per_instance);
      row.push_back(m.pooled_summary().cv);
    }
    series.add(static_cast<double>(t), std::move(row));
  }
  std::printf("%s\n", series.render(4).c_str());
  std::printf(
      "Reading: spread pays NUMA-span barrier costs earlier; close defers\n"
      "them until the team outgrows a domain. The cv columns show where\n"
      "each policy's variability takes off on this machine.\n");
  return 0;
}
