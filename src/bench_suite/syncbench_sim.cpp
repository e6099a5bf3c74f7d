#include "bench_suite/syncbench_sim.hpp"

#include <algorithm>

#include "bench_suite/protocol.hpp"

namespace omv::bench {

SimSyncBench::SimSyncBench(sim::Simulator& simulator,
                           ompsim::TeamConfig team_cfg, EpccParams params,
                           std::size_t groups)
    : sim_(&simulator),
      team_cfg_(std::move(team_cfg)),
      params_(params),
      groups_(std::max<std::size_t>(groups, 1)) {}

double SimSyncBench::ideal_instance_us(SyncConstruct c) const {
  const auto& cm = sim_->costs();
  const double t = static_cast<double>(team_cfg_.n_threads);
  const double levels =
      static_cast<double>(sim::ceil_log2(team_cfg_.n_threads));
  const double delay_s = params_.delay_us * 1e-6 * cm.work_scale;
  // Approximate topology span (worst case: close packing fills domains in
  // order; span grows with T). Use machine geometry.
  const auto& m = sim_->machine();
  const std::size_t threads_per_numa =
      std::max<std::size_t>(1, m.n_threads() / m.n_numa());
  const std::size_t numa_span = std::min<std::size_t>(
      m.n_numa(),
      (team_cfg_.n_threads + threads_per_numa - 1) / threads_per_numa);
  const std::size_t threads_per_socket =
      std::max<std::size_t>(1, m.n_threads() / m.n_sockets());
  const std::size_t socket_span = std::min<std::size_t>(
      m.n_sockets(),
      (team_cfg_.n_threads + threads_per_socket - 1) / threads_per_socket);
  const double barrier =
      cm.barrier_base + cm.barrier_per_level * levels +
      cm.barrier_numa_step * static_cast<double>(numa_span - 1) +
      cm.barrier_socket_step * static_cast<double>(socket_span - 1);
  const double fork = cm.fork_base + cm.fork_per_thread * t;

  double s = 0.0;
  switch (c) {
    case SyncConstruct::parallel:
      s = fork + delay_s + barrier;
      break;
    case SyncConstruct::for_:
      s = cm.static_setup + delay_s + barrier;
      break;
    case SyncConstruct::barrier:
      s = delay_s + barrier;
      break;
    case SyncConstruct::single:
      s = cm.single_arbitration + delay_s + barrier;
      break;
    case SyncConstruct::critical:
      s = (cm.critical_enter + delay_s) * t;
      break;
    case SyncConstruct::lock:
      s = (cm.lock_op + delay_s) * t;
      break;
    case SyncConstruct::ordered:
      s = (cm.ordered_wait + delay_s) * t + barrier;
      break;
    case SyncConstruct::atomic:
      s = cm.atomic_op + cm.atomic_contention * t;
      break;
    case SyncConstruct::reduction:
      s = fork + delay_s + cm.reduction_per_level * levels + barrier;
      break;
  }
  return s * 1e6;
}

std::size_t SimSyncBench::innerreps(SyncConstruct c) const {
  return calibrate_innerreps(ideal_instance_us(c), params_.test_time_us);
}

void SimSyncBench::dispatch(ompsim::SimTeam& team, SyncConstruct c,
                            double work_s, std::size_t repeats) {
  using namespace ompsim;
  switch (c) {
    case SyncConstruct::parallel:
      parallel_region(team, work_s, repeats);
      break;
    case SyncConstruct::for_:
      for_construct(team, work_s, repeats);
      break;
    case SyncConstruct::barrier:
      barrier_construct(team, work_s, repeats);
      break;
    case SyncConstruct::single:
      single_construct(team, work_s, repeats);
      break;
    case SyncConstruct::critical:
      critical_construct(team, work_s, repeats);
      break;
    case SyncConstruct::lock:
      lock_construct(team, work_s, repeats);
      break;
    case SyncConstruct::ordered:
      ordered_construct(team, work_s, repeats);
      break;
    case SyncConstruct::atomic:
      atomic_construct(team, repeats);
      break;
    case SyncConstruct::reduction:
      reduction_construct(team, work_s, repeats);
      break;
  }
}

double SimSyncBench::rep_time_us(ompsim::SimTeam& team, SyncConstruct c) {
  team.begin_rep();
  const double t0 = team.now();
  const std::size_t inner = innerreps(c);
  const std::size_t g = std::min(groups_, inner);
  const std::size_t per_group = inner / g;
  const std::size_t leftover = inner - per_group * g;
  const double work_s = params_.delay_us * 1e-6;
  for (std::size_t i = 0; i < g; ++i) {
    const std::size_t reps = per_group + (i < leftover ? 1 : 0);
    if (reps) dispatch(team, c, work_s, reps);
  }
  return (team.now() - t0) * 1e6;
}

double SimSyncBench::overhead_from_rep_us(double rep_time_us,
                                          SyncConstruct c) const {
  return overhead_us(rep_time_us, innerreps(c),
                     params_.delay_us * sim_->costs().work_scale);
}

RunMatrix SimSyncBench::run_protocol(SyncConstruct c,
                                     const ExperimentSpec& spec) {
  ompsim::SimTeam team(*sim_, team_cfg_, spec.seed);
  RunHooks hooks;
  hooks.before_run = [&](std::size_t, std::uint64_t run_seed) {
    team.begin_run(run_seed);
  };
  return run_experiment(
      spec, [&](const RepContext&) { return rep_time_us(team, c); }, hooks);
}

RunMatrix SimSyncBench::run_protocol(SyncConstruct c,
                                     const ExperimentSpec& spec,
                                     core::Executor& executor) {
  return run_protocol_sharded(
      *sim_, team_cfg_, spec, executor,
      [team_cfg = team_cfg_, params = params_,
       groups = groups_](sim::Simulator& sim) {
        return SimSyncBench(sim, team_cfg, params, groups);
      },
      [c](SimSyncBench& bench, ompsim::SimTeam& team) {
        return bench.rep_time_us(team, c);
      });
}

}  // namespace omv::bench
