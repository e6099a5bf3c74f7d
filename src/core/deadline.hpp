#pragma once
// Cooperative wall-clock deadline for the currently supervised campaign
// cell.
//
// The cell supervisor arms a deadline before invoking a cell's compute
// function; every repetition loop (serial and sharded) calls
// check_cell_deadline() between repetitions, so a cell that overruns its
// budget raises CellTimeout at the next repetition boundary on whichever
// worker thread notices first — worker-pool-based cancellation with no
// in-process signals. Granularity is therefore one repetition: a single
// wedged repetition cannot be interrupted (documented in README "Failure
// handling").
//
// Deadlines are task-scoped, not process-wide: each thread observes one
// active slot (thread-local pointer). Every executor task carries the slot
// its submitter observed, and the executor installs it around the task
// (core/executor.hpp) — the one caller of adopt_cell_deadline. A campaign
// runs many cells concurrently in one process, so a process-wide slot
// would let cell A's --cell-timeout trip or disarm cell B's — with the
// per-task slot each concurrent cell carries its own budget.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace omv::core {

/// Raised by check_cell_deadline() once the armed deadline has passed.
class CellTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One deadline slot: nanoseconds since the steady epoch, 0 = disarmed.
/// A single atomic keeps the per-repetition check wait-free for worker
/// threads sharing the slot.
struct CellDeadline {
  std::atomic<std::int64_t> at_ns{0};
};

/// The slot this thread currently observes (null = no deadline scope).
/// The executor captures it with every submitted task and adopts it on
/// whichever thread runs the task, so runs poll their own cell's budget.
[[nodiscard]] CellDeadline* current_cell_deadline() noexcept;

/// Installs `slot` as this thread's active deadline (null detaches);
/// returns the previous slot so callers can restore it.
CellDeadline* adopt_cell_deadline(CellDeadline* slot) noexcept;

/// Arms this thread's own slot `budget` from now and makes it active; a
/// zero budget disarms (and detaches the own slot if it was active).
void arm_cell_deadline(std::chrono::milliseconds budget) noexcept;

/// Disarms this thread's deadline (always call when the supervised region
/// ends — leaking an expired deadline would poison the next cell). Leaves
/// an adopted slot's value untouched (the owning task controls it) but
/// detaches this thread from it.
void clear_cell_deadline() noexcept;

/// True when a deadline is armed on this thread's slot and has passed.
/// Cheap: one thread-local read and one relaxed atomic load, plus a clock
/// read only while armed.
[[nodiscard]] bool cell_deadline_exceeded() noexcept;

/// Throws CellTimeout when the armed deadline has passed; no-op otherwise.
void check_cell_deadline();

/// Sleeps up to `stall`, waking early (and throwing CellTimeout) when the
/// armed deadline passes mid-sleep. Used by injected slow_cell stalls so a
/// stall longer than the cell budget trips the timeout deterministically.
void interruptible_stall(std::chrono::milliseconds stall);

}  // namespace omv::core
