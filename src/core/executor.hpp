#pragma once
// Executor — the one worker pool of an omnivar process.
//
// Under the paper's protocol every run is a pure function of its run seed,
// so where and when a task executes changes wall-clock time, never bytes.
// Campaign units and protocol runs are therefore both plain tasks on one
// pool of W workers (--jobs):
//
//   * W = 1 spawns no thread: TaskGroup::run executes each task inline on
//     the submitting thread, in submission order — the serial program.
//   * W > 1 spawns W - 1 threads; the thread blocked in TaskGroup::wait()
//     is the W-th worker. Every pool thread owns a deque (threads outside
//     the pool share one). A submission lands on the submitter's deque;
//     an idle worker takes the oldest task of the shared deque, else of
//     its own, else steals the oldest task of another deque (Blumofe &
//     Leiserson, "Scheduling Multithreaded Computations by Work Stealing",
//     JACM 1999).
//   * A thread waiting on a group runs that group's queued tasks itself,
//     then helps with queued runs of any other group. It sleeps only when
//     neither exists, and it never starts another group's unit while it
//     waits: a whole unit can outlast the cell that is waiting on it.
//   * Every task carries the cell deadline (core/deadline.hpp) of the
//     thread that submitted it, and the executor installs that deadline
//     around the task — a run polls its own cell's --cell-timeout on
//     whichever thread executes it.
//
// Tasks last milliseconds to seconds, so one mutex guards every deque:
// its contention is invisible next to the task bodies, and a single lock
// keeps the never-sleep-while-work-is-queued rule simple.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

namespace omv::core {

/// Resolves a worker-count request: 0 becomes the hardware thread count
/// (at least 1); anything else is returned unchanged.
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested) noexcept;

/// How a waiting thread may treat a task of a group it is not waiting on.
enum class TaskKind {
  kRun,   ///< a leaf, e.g. one protocol run: any waiting thread may run it.
  kUnit,  ///< may itself wait, e.g. a campaign unit: started only by an
          ///< idle worker or by the thread waiting on its own group.
};

class Executor {
 public:
  /// A pool of `workers` workers (0 is taken as 1).
  explicit Executor(std::size_t workers);
  /// Joins the pool. Every TaskGroup must be gone by now.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

 private:
  friend class TaskGroup;
  struct Pool;

  std::size_t workers_ = 1;
  std::unique_ptr<Pool> pool_;  ///< null at W = 1.
};

/// Tasks submitted together and awaited together: one thread creates a
/// group, submits its tasks and waits on it.
class TaskGroup {
 public:
  TaskGroup(Executor& executor, TaskKind kind) noexcept;
  /// Lets pending tasks finish when the owner unwinds before wait().
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `fn`; at W = 1 runs it before returning. Once a task of the
  /// group has thrown, the group's unstarted tasks are cancelled and
  /// further submissions are dropped.
  void run(std::function<void()> fn);

  /// Returns once every task of the group has finished or was cancelled,
  /// running tasks meanwhile as described above; then rethrows the
  /// group's first exception, if any.
  void wait();

 private:
  friend struct Executor::Pool;

  /// Blocks until no task of the group is pending, running tasks
  /// meanwhile.
  void drain();

  Executor& executor_;
  TaskKind kind_;
  std::size_t pending_ = 0;  ///< submitted, not yet finished or cancelled.
  bool cancelled_ = false;
  std::exception_ptr error_;
};

}  // namespace omv::core
