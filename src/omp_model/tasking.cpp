#include "omp_model/tasking.hpp"

#include <algorithm>
#include <vector>

#include "omp_model/earliest_clock.hpp"

namespace omv::ompsim {

void parallel_task_generation(SimTeam& team, std::size_t tasks_per_thread,
                              double work, const TaskCosts& costs) {
  const std::size_t n = team.size();
  const double create =
      costs.create + costs.create_contention * static_cast<double>(n);
  // Phase 1: every thread creates its tasks (parallel, contended).
  team.compute(static_cast<double>(tasks_per_thread) * create);
  // Phase 2: execution is self-balancing (own queue first, then steals).
  // Model as a central pool drained greedily: per-task cost = work +
  // dequeue (own) with the tail of the pool costing steals.
  const std::size_t total = tasks_per_thread * n;
  EarliestClock queue(team.clocks());
  std::size_t remaining = total;
  std::size_t own_budget = tasks_per_thread;  // first own tasks are cheap
  std::vector<std::size_t> own(n, own_budget);
  while (remaining > 0) {
    const std::size_t i = queue.top();
    const double overhead = own[i] > 0 ? costs.dequeue : costs.steal;
    if (own[i] > 0) --own[i];
    queue.update(i, team.exec_at(i, queue.clock(i), work + overhead));
    --remaining;
  }
  team.set_clocks(queue.clocks());
  team.barrier();  // taskwait
}

void master_task_generation(SimTeam& team, std::size_t total_tasks,
                            double work, const TaskCosts& costs) {
  // The producer emits tasks serially; consumers (including the producer
  // once it finishes producing) execute them, paying the steal cost.
  std::vector<double> clock(team.clocks().begin(), team.clocks().end());
  std::vector<double> ready_at(total_tasks, 0.0);
  {
    double t = clock[0];
    for (std::size_t k = 0; k < total_tasks; ++k) {
      t += costs.create;  // single producer: no contention term
      ready_at[k] = t;
    }
    clock[0] = t;
  }
  EarliestClock queue(clock);
  for (std::size_t k = 0; k < total_tasks; ++k) {
    const std::size_t i = queue.top();
    const double start = std::max(queue.clock(i), ready_at[k]);
    queue.update(i, team.exec_at(i, start + costs.steal, work));
  }
  team.set_clocks(queue.clocks());
  team.barrier();  // taskwait
}

}  // namespace omv::ompsim
