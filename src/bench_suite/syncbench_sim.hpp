#pragma once
// syncbench on the simulated OpenMP runtime.
//
// For each synchronization construct, one outer repetition executes
// `innerreps` construct instances (calibrated once per configuration against
// the noise-free cost of an instance). Instances are simulated in groups so
// a repetition costs O(groups * threads) events regardless of innerreps.

#include <cstdint>

#include "bench_suite/epcc.hpp"
#include "core/experiment.hpp"
#include "omp_model/constructs.hpp"
#include "omp_model/team.hpp"
#include "sim/simulator.hpp"

namespace omv::bench {

/// syncbench, simulator backend.
class SimSyncBench {
 public:
  /// `groups` bounds the number of simulated phases per repetition.
  SimSyncBench(sim::Simulator& simulator, ompsim::TeamConfig team_cfg,
               EpccParams params = EpccParams::syncbench(),
               std::size_t groups = 16);

  /// Noise-free time of one instance of `c` in microseconds (used for
  /// innerreps calibration; computed analytically from the cost model).
  [[nodiscard]] double ideal_instance_us(SyncConstruct c) const;

  /// Calibrated innerreps for construct `c`.
  [[nodiscard]] std::size_t innerreps(SyncConstruct c) const;

  /// Simulates one outer repetition of construct `c` on `team`, returning
  /// its duration in microseconds. Advances the team's clocks.
  [[nodiscard]] double rep_time_us(ompsim::SimTeam& team, SyncConstruct c);

  /// Runs the full paper protocol (spec.runs x spec.reps) for construct `c`
  /// and returns the RunMatrix of repetition times (microseconds). The
  /// runs are tasks on `executor` (inline at one worker), each on a
  /// private Simulator clone, so the matrix is the same bytes at every
  /// width (see run_protocol_sharded).
  [[nodiscard]] RunMatrix run_protocol(SyncConstruct c,
                                       const ExperimentSpec& spec,
                                       core::Executor& executor);

 private:
  void dispatch(ompsim::SimTeam& team, SyncConstruct c, double work_s,
                std::size_t repeats);

  sim::Simulator* sim_;
  ompsim::TeamConfig team_cfg_;
  EpccParams params_;
  std::size_t groups_;
};

}  // namespace omv::bench
