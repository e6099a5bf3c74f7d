#include "core/experiment.hpp"

#include "core/deadline.hpp"
#include "core/executor.hpp"
#include "core/rng.hpp"

namespace omv {

std::uint64_t derive_run_seed(std::uint64_t base, std::size_t run) noexcept {
  return Rng(base).fork(0x5eedULL + run).next_u64();
}

std::vector<double> execute_run(const ExperimentSpec& spec,
                                const RepKernel& kernel, std::size_t run,
                                std::uint64_t run_seed) {
  RepContext ctx;
  ctx.run = run;
  ctx.run_seed = run_seed;

  // Cooperative cell-timeout poll at repetition granularity: whichever
  // thread runs this repetition observes its cell's deadline (the executor
  // installs it around every task) and throws CellTimeout — cancellation
  // without signals, at the cost of one repetition of latency.
  for (std::size_t w = 0; w < spec.warmup; ++w) {
    core::check_cell_deadline();
    ctx.rep = w;
    ctx.warmup = true;
    (void)kernel(ctx);
  }

  std::vector<double> times;
  times.reserve(spec.reps);
  ctx.warmup = false;
  for (std::size_t k = 0; k < spec.reps; ++k) {
    core::check_cell_deadline();
    ctx.rep = k;
    times.push_back(kernel(ctx));
  }
  return times;
}

RunMatrix run_experiment(const ExperimentSpec& spec,
                         const RepKernel& kernel) {
  RunMatrix matrix;
  for (std::size_t r = 0; r < spec.runs; ++r) {
    matrix.add_run(execute_run(spec, kernel, r, derive_run_seed(spec.seed, r)));
  }
  return matrix;
}

RunMatrix run_experiment_parallel(const ExperimentSpec& spec,
                                  const RunKernelFactory& make_kernel,
                                  core::Executor& executor) {
  // Each task writes only its own pre-sized row, so assembly in protocol
  // order needs no synchronization beyond the group's wait.
  std::vector<std::vector<double>> rows(spec.runs);
  core::TaskGroup runs(executor, core::TaskKind::kRun);
  for (std::size_t r = 0; r < spec.runs; ++r) {
    runs.run([&, r] {
      const RunSlot slot{r, derive_run_seed(spec.seed, r)};
      rows[r] = execute_run(spec, make_kernel(slot), r, slot.run_seed);
    });
  }
  runs.wait();
  RunMatrix matrix;
  for (auto& row : rows) matrix.add_run(std::move(row));
  return matrix;
}

}  // namespace omv
