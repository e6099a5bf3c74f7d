#pragma once
// schedbench on the simulated OpenMP runtime.
//
// One outer repetition is one `#pragma omp parallel for schedule(kind,
// chunk)` region over n_threads * itersperthr iterations of delay(delay_us)
// each (Table 1: 8192 iterations of 15 us per thread). Dynamic/guided
// scheduling is simulated chunk-by-chunk through the central-queue engine,
// with automatic coarsening to bound the event count at scale.

#include <cstdint>

#include "bench_suite/epcc.hpp"
#include "core/experiment.hpp"
#include "omp_model/team.hpp"
#include "omp_model/worksharing.hpp"
#include "sim/simulator.hpp"

namespace omv::bench {

/// schedbench, simulator backend.
class SimSchedBench {
 public:
  SimSchedBench(sim::Simulator& simulator, ompsim::TeamConfig team_cfg,
                EpccParams params = EpccParams::schedbench(),
                std::size_t max_grabs_per_rep = 20000);

  /// Simulates one repetition (one full scheduled loop), returning its
  /// duration in microseconds.
  [[nodiscard]] double rep_time_us(ompsim::SimTeam& team,
                                   ompsim::Schedule kind, std::size_t chunk);

  /// Full paper protocol for (kind, chunk); times in microseconds.
  [[nodiscard]] RunMatrix run_protocol(ompsim::Schedule kind,
                                       std::size_t chunk,
                                       const ExperimentSpec& spec);

  /// As run_protocol, but shards the spec's runs onto `executor` (one
  /// task per run; inline at one worker); bit-identical to the serial
  /// overload.
  [[nodiscard]] RunMatrix run_protocol(ompsim::Schedule kind,
                                       std::size_t chunk,
                                       const ExperimentSpec& spec,
                                       core::Executor& executor);

  /// The coarsening factor used for a given chunk size (1 = exact).
  [[nodiscard]] std::size_t coarsen_for(std::size_t chunk) const;

  [[nodiscard]] const EpccParams& params() const noexcept { return params_; }

 private:
  sim::Simulator* sim_;
  ompsim::TeamConfig team_cfg_;
  EpccParams params_;
  std::size_t max_grabs_;
};

}  // namespace omv::bench
