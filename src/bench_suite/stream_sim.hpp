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

namespace omv::snap {
struct CheckpointPolicy;
}  // namespace omv::snap

namespace omv::bench {

/// The five BabelStream kernels.
enum class StreamKernel { copy, mul, add, triad, dot };

[[nodiscard]] const char* stream_kernel_name(StreamKernel k) noexcept;
[[nodiscard]] const std::array<StreamKernel, 5>& all_stream_kernels() noexcept;

/// Bytes moved per element by each kernel (reads + writes of 8-byte
/// doubles; write-allocate traffic folded into the store stream).
[[nodiscard]] double stream_bytes_per_elem(StreamKernel k) noexcept;

/// Per-run result: min/avg/max over the in-run kernel repetitions —
/// BabelStream's native reporting, which the paper normalizes to the
/// average (Section 4.2).
struct StreamRunResult {
  double min_s = 0.0;
  double avg_s = 0.0;
  double max_s = 0.0;
  [[nodiscard]] double norm_min() const {
    return avg_s > 0.0 ? min_s / avg_s : 0.0;
  }
  [[nodiscard]] double norm_max() const {
    return avg_s > 0.0 ? max_s / avg_s : 0.0;
  }
};

/// BabelStream, simulator backend.
class SimStream {
 public:
  /// Default array size 2^25 doubles (the paper's configuration).
  SimStream(sim::Simulator& simulator, ompsim::TeamConfig team_cfg,
            std::size_t array_elems = std::size_t{1} << 25,
            double smt_stream_penalty = 1.08);

  /// Simulates one timed execution of kernel `k`, returning seconds.
  [[nodiscard]] double kernel_time_s(ompsim::SimTeam& team, StreamKernel k);

  /// Runs `reps` repetitions of kernel `k` within an existing run.
  [[nodiscard]] StreamRunResult run_kernel(ompsim::SimTeam& team,
                                           StreamKernel k, std::size_t reps);

  /// Full protocol: for each run, `reps` repetitions; RunMatrix of kernel
  /// times in milliseconds.
  [[nodiscard]] RunMatrix run_protocol(StreamKernel k,
                                       const ExperimentSpec& spec);

  /// As run_protocol, but shards the spec's runs onto `executor` (one
  /// task per run; inline at one worker); bit-identical to the serial
  /// overload. `ckpt` optionally routes the cell through the
  /// checkpointed (serial, snapshot-writing) protocol loop.
  [[nodiscard]] RunMatrix run_protocol(
      StreamKernel k, const ExperimentSpec& spec, core::Executor& executor,
      const snap::CheckpointPolicy* ckpt = nullptr);

  [[nodiscard]] std::size_t array_elems() const noexcept {
    return array_elems_;
  }

 private:
  sim::Simulator* sim_;
  ompsim::TeamConfig team_cfg_;
  std::size_t array_elems_;
  double smt_penalty_;
};

}  // namespace omv::bench
