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

  /// Overhead per instance for a measured repetition (EPCC definition;
  /// the serial reference is the pure delay payload).
  [[nodiscard]] double overhead_from_rep_us(double rep_time_us,
                                            SyncConstruct c) const;

  /// Runs the full paper protocol (spec.runs x spec.reps) for construct `c`
  /// and returns the RunMatrix of repetition times (microseconds).
  [[nodiscard]] RunMatrix run_protocol(SyncConstruct c,
                                       const ExperimentSpec& spec);

  /// As run_protocol, but shards the spec's runs onto `executor` (one
  /// task per run; inline at one worker). Each run executes on
  /// a private Simulator + team whose state begin_run re-derives entirely
  /// from the run seed, so the RunMatrix is bit-identical to the serial
  /// overload.
  [[nodiscard]] RunMatrix run_protocol(SyncConstruct c,
                                       const ExperimentSpec& spec,
                                       core::Executor& executor);

  [[nodiscard]] const EpccParams& params() const noexcept { return params_; }
  [[nodiscard]] const ompsim::TeamConfig& team_config() const noexcept {
    return team_cfg_;
  }

 private:
  void dispatch(ompsim::SimTeam& team, SyncConstruct c, double work_s,
                std::size_t repeats);

  sim::Simulator* sim_;
  ompsim::TeamConfig team_cfg_;
  EpccParams params_;
  std::size_t groups_;
};

}  // namespace omv::bench
