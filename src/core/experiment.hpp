#pragma once
// Experiment protocol runner.
//
// Encodes the paper's measurement protocol: for each configuration, perform
// `runs` independent runs; within each run execute `warmup` discarded
// repetitions followed by `reps` timed repetitions. The kernel is an
// arbitrary callable returning the measured time of one repetition (the
// simulated EPCC benchmarks return simulated microseconds).
//
// Every run derives its entire state from derive_run_seed(spec.seed, run),
// so the runs of one configuration are independent: run_experiment_parallel
// shards them onto an executor (core/executor.hpp), one task per run, and
// reassembles the rows in protocol order — the same bytes at any width. A
// one-worker executor runs each run inline, in order: the serial program.

#include <cstdint>
#include <functional>

#include "core/run_matrix.hpp"

namespace omv {

/// Protocol parameters (defaults mirror the paper: 10 runs x 100 reps).
struct ExperimentSpec {
  std::size_t runs = 10;
  std::size_t reps = 100;
  std::size_t warmup = 1;  ///< discarded repetitions per run.
  std::uint64_t seed = 1;  ///< base seed forwarded to run setup.
};

/// Context passed to the per-repetition kernel.
struct RepContext {
  std::size_t run = 0;
  std::size_t rep = 0;       ///< timed repetition index (warmups excluded).
  bool warmup = false;
  std::uint64_t run_seed = 0;  ///< seed derived per run from spec.seed.
};

/// A kernel returns the execution time of one repetition, in the caller's
/// unit (the EPCC harness returns microseconds).
using RepKernel = std::function<double(const RepContext&)>;

/// Executes the protocol in one loop, every run through one shared
/// `kernel`, and collects the RunMatrix. No benchmark runs it: the tests
/// keep it as the serial oracle that run_experiment_parallel must match
/// bit for bit.
[[nodiscard]] RunMatrix run_experiment(const ExperimentSpec& spec,
                                       const RepKernel& kernel);

/// Executes the warmup + timed repetitions of run `run` and returns its
/// repetition times. This is the single arithmetic shared by the serial
/// run_experiment loop and the sharded runs of run_experiment_parallel,
/// which is what makes parallel results bit-identical to serial ones.
[[nodiscard]] std::vector<double> execute_run(const ExperimentSpec& spec,
                                              const RepKernel& kernel,
                                              std::size_t run,
                                              std::uint64_t run_seed);

namespace core {
class Executor;
}

/// Identifies one run of a protocol.
struct RunSlot {
  std::size_t run = 0;         ///< run index within the spec.
  std::uint64_t run_seed = 0;  ///< derive_run_seed(spec.seed, run).
};

/// Builds the kernel executing every repetition (warmup + timed) of one
/// run. Invoked once per run, possibly concurrently with other runs, so
/// each run gets a private kernel that may own mutable state (simulators,
/// thread teams) without synchronization.
using RunKernelFactory = std::function<RepKernel(const RunSlot&)>;

/// run_experiment with one `executor` task per run. The first exception a
/// factory or kernel throws is rethrown once the started runs finish.
[[nodiscard]] RunMatrix run_experiment_parallel(
    const ExperimentSpec& spec, const RunKernelFactory& make_kernel,
    core::Executor& executor);

/// Derives the per-run seed used by run_experiment (exposed so external
/// harnesses can reproduce individual runs).
[[nodiscard]] std::uint64_t derive_run_seed(std::uint64_t base,
                                            std::size_t run) noexcept;

}  // namespace omv
