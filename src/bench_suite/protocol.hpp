#pragma once
// Shared sharded-protocol plumbing for the simulator-backed benchmarks.
//
// Every Sim* benchmark parallelizes the same way: each run gets a private
// clone of the Simulator (same machine + config), a private benchmark
// object and a private SimTeam, and SimTeam::begin_run re-derives all
// per-run state from the run seed — which is what makes the sharded
// result bit-identical to the serial run_protocol path. This header is
// the single implementation of that per-run cloning contract; changing
// the contract here changes it for every benchmark at once.

#include <memory>
#include <type_traits>
#include <utility>

#include "core/executor.hpp"
#include "core/experiment.hpp"
#include "omp_model/team.hpp"
#include "sim/simulator.hpp"

namespace omv::bench {

/// Default (no-op) end-of-run hook for run_protocol_sharded.
struct NoRunEndHook {
  template <typename Bench>
  void operator()(Bench&, ompsim::SimTeam&, sim::Simulator&,
                  const RunSlot&) const noexcept {}
};

/// Shards spec.runs onto `executor`, one task per run (inline at one
/// worker). Each run builds a private Simulator clone of
/// `base`, a benchmark instance via `make_bench(sim)`, and a SimTeam on
/// `team_cfg`; begin_run(run_seed) then resets every model. Repetitions
/// execute `rep(bench, team)`; after a run's last timed repetition,
/// `on_run_end(bench, team, sim, slot)` fires (e.g. to sample the run's
/// frequency trace into a run-indexed slot).
template <typename MakeBench, typename Rep, typename OnRunEnd = NoRunEndHook>
[[nodiscard]] RunMatrix run_protocol_sharded(
    const sim::Simulator& base, const ompsim::TeamConfig& team_cfg,
    const ExperimentSpec& spec, core::Executor& executor, MakeBench make_bench,
    Rep rep, OnRunEnd on_run_end = {}) {
  const topo::Machine machine = base.machine();
  const sim::SimConfig sim_cfg = base.config();
  const std::uint64_t team_seed = spec.seed;
  const std::size_t n_reps = spec.reps;
  return run_experiment_parallel(
      spec,
      [=](const RunSlot& slot) -> RepKernel {
        auto sim = std::make_shared<sim::Simulator>(machine, sim_cfg);
        using Bench = std::decay_t<decltype(make_bench(*sim))>;
        auto bench = std::make_shared<Bench>(make_bench(*sim));
        auto team =
            std::make_shared<ompsim::SimTeam>(*sim, team_cfg, team_seed);
        team->begin_run(slot.run_seed);
        return [sim, bench, team, rep, on_run_end, slot,
                n_reps](const RepContext& c) {
          const double t = rep(*bench, *team);
          // c.rep + 1 == n_reps is underflow-safe for n_reps == 0 (the
          // kernel sees no timed reps then, so the hook cannot fire).
          if (!c.warmup && c.rep + 1 == n_reps) {
            on_run_end(*bench, *team, *sim, slot);
          }
          return t;
        };
      },
      executor);
}

}  // namespace omv::bench
