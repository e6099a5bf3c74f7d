#pragma once
// schedbench on the simulated OpenMP runtime.
//
// One outer repetition is one `#pragma omp parallel for schedule(kind,
// chunk)` region over n_threads * itersperthr iterations of delay(delay_us)
// each (Table 1: 8192 iterations of 15 us per thread). Dynamic/guided
// scheduling is simulated chunk-by-chunk through the central-queue engine,
// with automatic coarsening to bound the event count at scale: a rep grabs
// its chunks in groups of max(1, total_chunks / max_grabs_per_rep)
// (coarsen_for). The default budget, 10000 grabs, is the one every harness
// runs, so a 4-thread dynamic_1 loop (32,768 chunks) runs coarsened by 3.

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
                std::size_t max_grabs_per_rep = 10000);

  /// Simulates one repetition (one full scheduled loop), returning its
  /// duration in microseconds.
  [[nodiscard]] double rep_time_us(ompsim::SimTeam& team,
                                   ompsim::Schedule kind, std::size_t chunk);

  /// Full paper protocol for (kind, chunk); times in microseconds. The
  /// runs are tasks on `executor` (inline at one worker), each on a
  /// private Simulator clone, so the matrix is the same bytes at every
  /// width (see run_protocol_sharded).
  [[nodiscard]] RunMatrix run_protocol(ompsim::Schedule kind,
                                       std::size_t chunk,
                                       const ExperimentSpec& spec,
                                       core::Executor& executor);

  /// The coarsening factor used for a given chunk size (1 = exact).
  [[nodiscard]] std::size_t coarsen_for(std::size_t chunk) const;

 private:
  sim::Simulator* sim_;
  ompsim::TeamConfig team_cfg_;
  EpccParams params_;
  std::size_t max_grabs_;
};

}  // namespace omv::bench
