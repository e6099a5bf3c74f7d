#include "bench_suite/schedbench_sim.hpp"

#include <algorithm>

#include "bench_suite/protocol.hpp"

namespace omv::bench {

SimSchedBench::SimSchedBench(sim::Simulator& simulator,
                             ompsim::TeamConfig team_cfg, EpccParams params,
                             std::size_t max_grabs_per_rep)
    : sim_(&simulator),
      team_cfg_(std::move(team_cfg)),
      params_(params),
      max_grabs_(std::max<std::size_t>(max_grabs_per_rep, 100)) {}

std::size_t SimSchedBench::coarsen_for(std::size_t chunk) const {
  chunk = std::max<std::size_t>(chunk, 1);
  const std::size_t total_iters = team_cfg_.n_threads * params_.itersperthr;
  const std::size_t total_chunks = (total_iters + chunk - 1) / chunk;
  return std::max<std::size_t>(1, total_chunks / max_grabs_);
}

double SimSchedBench::rep_time_us(ompsim::SimTeam& team,
                                  ompsim::Schedule kind, std::size_t chunk) {
  team.begin_rep();
  const double t0 = team.now();
  const std::size_t total_iters = team.size() * params_.itersperthr;
  const double work_per_iter = params_.delay_us * 1e-6;
  ompsim::for_loop(team, kind, chunk, total_iters, work_per_iter,
                   coarsen_for(chunk));
  return (team.now() - t0) * 1e6;
}

RunMatrix SimSchedBench::run_protocol(ompsim::Schedule kind, std::size_t chunk,
                                      const ExperimentSpec& spec) {
  ompsim::SimTeam team(*sim_, team_cfg_, spec.seed);
  RunHooks hooks;
  hooks.before_run = [&](std::size_t, std::uint64_t run_seed) {
    team.begin_run(run_seed);
  };
  return run_experiment(
      spec, [&](const RepContext&) { return rep_time_us(team, kind, chunk); },
      hooks);
}

RunMatrix SimSchedBench::run_protocol(ompsim::Schedule kind, std::size_t chunk,
                                      const ExperimentSpec& spec,
                                      core::Executor& executor) {
  return run_protocol_sharded(
      *sim_, team_cfg_, spec, executor,
      [team_cfg = team_cfg_, params = params_,
       max_grabs = max_grabs_](sim::Simulator& sim) {
        return SimSchedBench(sim, team_cfg, params, max_grabs);
      },
      [kind, chunk](SimSchedBench& bench, ompsim::SimTeam& team) {
        return bench.rep_time_us(team, kind, chunk);
      });
}

}  // namespace omv::bench
