#pragma once
// BabelStream on the simulated machine.
//
// Five kernels over arrays of `array_elems` doubles: copy (c = a), mul
// (b = s*c), add (c = a + b), triad (a = b + s*c), dot (sum += a*b). Kernel
// time is bandwidth-bound: each thread streams its slice from its
// first-touch NUMA domain through the memory model (contention, remote
// penalties), multiplied by oversubscription, slightly degraded under SMT
// co-scheduling, extended by OS-noise preemptions, and closed by the
// end-of-kernel barrier (dot adds a reduction).

#include <array>
#include <cstdint>

#include "core/experiment.hpp"
#include "omp_model/team.hpp"
#include "sim/simulator.hpp"

namespace omv::bench {

/// The five BabelStream kernels.
enum class StreamKernel { copy, mul, add, triad, dot };

[[nodiscard]] const char* stream_kernel_name(StreamKernel k) noexcept;
[[nodiscard]] const std::array<StreamKernel, 5>& all_stream_kernels() noexcept;

/// Bytes moved per element by each kernel (reads + writes of 8-byte
/// doubles; write-allocate traffic folded into the store stream).
[[nodiscard]] double stream_bytes_per_elem(StreamKernel k) noexcept;

/// BabelStream, simulator backend.
class SimStream {
 public:
  /// Default array size 2^25 doubles (the paper's configuration).
  SimStream(sim::Simulator& simulator, ompsim::TeamConfig team_cfg,
            std::size_t array_elems = std::size_t{1} << 25,
            double smt_stream_penalty = 1.08);

  /// Simulates one timed execution of kernel `k`, returning seconds.
  [[nodiscard]] double kernel_time_s(ompsim::SimTeam& team, StreamKernel k);

  /// Full protocol: for each run, `reps` repetitions; RunMatrix of kernel
  /// times in milliseconds. The runs are tasks on `executor` (inline at
  /// one worker), each on a private Simulator clone, so the matrix is the
  /// same bytes at every width (see run_protocol_sharded).
  [[nodiscard]] RunMatrix run_protocol(StreamKernel k,
                                       const ExperimentSpec& spec,
                                       core::Executor& executor);

 private:
  sim::Simulator* sim_;
  ompsim::TeamConfig team_cfg_;
  std::size_t array_elems_;
  double smt_penalty_;
};

}  // namespace omv::bench
