#include "omp_model/worksharing.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "omp_model/earliest_clock.hpp"

namespace omv::ompsim {

Schedule parse_schedule(const std::string& s) {
  if (s == "static") return Schedule::static_;
  if (s == "dynamic") return Schedule::dynamic;
  if (s == "guided") return Schedule::guided;
  throw std::invalid_argument("unknown schedule '" + s + "'");
}

const char* schedule_name(Schedule s) noexcept {
  switch (s) {
    case Schedule::static_:
      return "static";
    case Schedule::dynamic:
      return "dynamic";
    case Schedule::guided:
      return "guided";
  }
  return "?";
}

std::size_t static_iters_for_thread(std::size_t i, std::size_t n_threads,
                                    std::size_t chunk,
                                    std::size_t total_iters) {
  if (chunk == 0) {
    // schedule(static) without a chunk: one near-equal block per thread.
    const std::size_t base = total_iters / n_threads;
    const std::size_t rem = total_iters % n_threads;
    return base + (i < rem ? 1 : 0);
  }
  const std::size_t n_chunks = (total_iters + chunk - 1) / chunk;
  if (n_chunks == 0) return 0;
  // Chunks i, i+T, i+2T, ...; the final chunk may be short.
  const std::size_t full = n_chunks / n_threads;
  const std::size_t rem_chunks = n_chunks % n_threads;
  std::size_t mine = full + (i < rem_chunks ? 1 : 0);
  std::size_t iters = mine * chunk;
  // The very last chunk is truncated; it belongs to thread (n_chunks-1) % T.
  const std::size_t last_owner = (n_chunks - 1) % n_threads;
  const std::size_t tail = n_chunks * chunk - total_iters;
  if (i == last_owner) iters -= tail;
  return iters;
}

namespace {

/// Greedy central-queue engine shared by dynamic and guided: repeatedly hand
/// the next grab to the earliest-clock thread. A grab batches up to
/// `coarsen` consecutive chunks; its size is closed-form, so the host cost
/// is O(log T) per grab however many chunks or iterations it covers.
void central_queue_loop(SimTeam& team, std::size_t total_iters,
                        double work_per_iter, double grab_cost,
                        std::size_t first_chunk, std::size_t min_chunk,
                        bool guided, std::size_t coarsen) {
  const std::size_t n = team.size();
  EarliestClock queue(team.clocks());

  std::size_t remaining = total_iters;
  std::size_t chunk = std::max<std::size_t>(first_chunk, 1);
  while (remaining > 0) {
    const std::size_t i = queue.top();
    // Guided sizes its chunk once per grab, which is per chunk only
    // because for_loop never batches guided grabs (coarsen = 1).
    if (guided) {
      chunk = std::max<std::size_t>(min_chunk, remaining / (2 * n));
      chunk = std::max<std::size_t>(chunk, 1);
    }
    // g = min(coarsen, ceil(remaining / chunk)) chunks, the last one
    // possibly short. (remaining - 1) / chunk + 1 is the ceiling without
    // overflow, and g * chunk is only formed when it stays below remaining.
    const std::size_t chunks_left = (remaining - 1) / chunk + 1;
    const std::size_t grabbed_chunks = std::min(coarsen, chunks_left);
    const std::size_t iters =
        grabbed_chunks < chunks_left ? grabbed_chunks * chunk : remaining;
    remaining -= iters;
    const double work = static_cast<double>(iters) * work_per_iter +
                        static_cast<double>(grabbed_chunks) * grab_cost;
    queue.update(i, team.exec_at(i, queue.clock(i), work));
  }
  // Propagate final clocks back into the team, then the implicit barrier.
  team.set_clocks(queue.clocks());
  team.barrier();
}

}  // namespace

void for_loop(SimTeam& team, Schedule kind, std::size_t chunk,
              std::size_t total_iters, double work_per_iter,
              std::size_t coarsen) {
  const auto& costs = team.simulator().costs();
  const std::size_t n = team.size();
  coarsen = std::max<std::size_t>(coarsen, 1);

  switch (kind) {
    case Schedule::static_: {
      std::vector<double> work(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        work[i] = static_cast<double>(static_iters_for_thread(
                      i, n, chunk, total_iters)) *
                      work_per_iter +
                  costs.static_setup;
      }
      team.compute(work);
      team.barrier();
      break;
    }
    case Schedule::dynamic: {
      const double grab = costs.sched_grab_base +
                          costs.sched_grab_contention *
                              static_cast<double>(n);
      central_queue_loop(team, total_iters, work_per_iter, grab,
                         std::max<std::size_t>(chunk, 1),
                         std::max<std::size_t>(chunk, 1),
                         /*guided=*/false, coarsen);
      break;
    }
    case Schedule::guided: {
      const double grab = costs.sched_grab_base +
                          costs.sched_grab_contention *
                              static_cast<double>(n);
      // Guided already performs O(T log(iters/T)) grabs — never batch them:
      // batching would hand several exponentially-large leading chunks to
      // one thread and destroy the balance the schedule exists for.
      central_queue_loop(team, total_iters, work_per_iter, grab,
                         /*first_chunk=*/std::max<std::size_t>(
                             total_iters / (2 * n), 1),
                         /*min_chunk=*/std::max<std::size_t>(chunk, 1),
                         /*guided=*/true, /*coarsen=*/1);
      break;
    }
  }
}

}  // namespace omv::ompsim
