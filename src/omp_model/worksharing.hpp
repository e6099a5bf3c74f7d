#pragma once
// OpenMP worksharing-loop schedulers on a simulated team.
//
// Implements the three schedule kinds of `#pragma omp for` from scratch:
//
//   * static  — chunks assigned round-robin at region entry, zero runtime
//               arbitration (chunk 0 -> thread 0, chunk 1 -> thread 1, ...).
//   * dynamic — a central chunk queue; each grab is an atomic fetch-add whose
//               cost grows with the number of contending threads. Modelled as
//               greedy list scheduling: the next chunk always goes to the
//               thread whose clock is earliest (exactly the behaviour of a
//               central queue with instantaneous arbitration order).
//   * guided  — like dynamic but the chunk size starts at remaining/T and
//               decays exponentially down to the minimum chunk size.
//
// A `coarsen` knob lets schedbench-at-scale batch c consecutive chunks into
// one simulated grab whose cost is c times the per-grab cost; the schedule
// shape (self-balancing, end-of-loop straggler) is preserved while the event
// count drops by c. Host cost scales with grabs, not iterations: a grab's
// size is closed-form and handing it to the earliest thread is O(log T).

#include <cstddef>

#include "omp_model/team.hpp"

namespace omv::ompsim {

/// Loop schedule kinds (OpenMP 5.0 `schedule` clause).
enum class Schedule { static_, dynamic, guided };

/// "static" / "dynamic" / "guided".
[[nodiscard]] const char* schedule_name(Schedule s) noexcept;

/// Runs one `#pragma omp for schedule(kind, chunk)` region over
/// `total_iters` iterations of `work_per_iter` nominal seconds each,
/// including the trailing implicit barrier.
///
/// `coarsen` >= 1 batches that many chunks per simulated grab (dynamic /
/// guided only; static needs no coarsening since it is simulated in one
/// segment per thread regardless of iteration count).
void for_loop(SimTeam& team, Schedule kind, std::size_t chunk,
              std::size_t total_iters, double work_per_iter,
              std::size_t coarsen = 1);

/// Iterations thread `i` receives under schedule(static, chunk) — exposed
/// for property tests (every iteration assigned exactly once).
[[nodiscard]] std::size_t static_iters_for_thread(std::size_t i,
                                                  std::size_t n_threads,
                                                  std::size_t chunk,
                                                  std::size_t total_iters);

}  // namespace omv::ompsim
