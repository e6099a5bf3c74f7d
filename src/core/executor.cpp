#include "core/executor.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/deadline.hpp"

namespace omv::core {

std::size_t resolve_jobs(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct Executor::Pool {
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    CellDeadline* deadline = nullptr;  ///< the submitter's active slot.
  };

  explicit Pool(std::size_t workers);
  ~Pool();

  /// The deque this thread submits to and scans first: its own for a pool
  /// thread, the shared last one for every other thread.
  [[nodiscard]] std::size_t home() const noexcept;

  /// Removes and returns the oldest task this thread may start: a task of
  /// `waiting_on` or any run while waiting, any task while idle (null).
  [[nodiscard]] std::optional<Task> take(const TaskGroup* waiting_on);

  /// Runs `task` with the lock released and its submitter's deadline
  /// installed, then retires it from its group. Must not touch the group
  /// after the retirement: its waiter may destroy it right away.
  void execute(Task task, std::unique_lock<std::mutex>& lock);

  /// Drops every queued task of `group` (its first task has thrown).
  void cancel_queued(TaskGroup* group);

  void worker_loop(std::size_t index);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::deque<Task>> queues;  ///< one per pool thread + shared.
  bool stop = false;
  std::vector<std::thread> threads;
};

namespace {

// The pool this thread works for and its deque index (pool threads only).
thread_local const void* t_pool = nullptr;
thread_local std::size_t t_queue = 0;

}  // namespace

Executor::Pool::Pool(std::size_t workers) : queues(workers) {
  threads.reserve(workers - 1);
  for (std::size_t w = 0; w + 1 < workers; ++w) {
    threads.emplace_back([this, w] { worker_loop(w); });
  }
}

Executor::Pool::~Pool() {
  {
    std::lock_guard lock(mutex);
    stop = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
}

std::size_t Executor::Pool::home() const noexcept {
  return t_pool == this ? t_queue : queues.size() - 1;
}

std::optional<Executor::Pool::Task> Executor::Pool::take(
    const TaskGroup* waiting_on) {
  const std::size_t n = queues.size();
  const std::size_t own = home();
  const auto pop_first = [&](std::size_t q, auto&& eligible)
      -> std::optional<Task> {
    auto& dq = queues[q];
    for (auto it = dq.begin(); it != dq.end(); ++it) {
      if (!eligible(*it)) continue;
      Task t = std::move(*it);
      dq.erase(it);
      return t;
    }
    return std::nullopt;
  };
  if (waiting_on != nullptr) {
    // Our own group's tasks sit on our own deque (we submitted them).
    if (auto t = pop_first(
            own, [&](const Task& t) { return t.group == waiting_on; })) {
      return t;
    }
    const auto is_run = [](const Task& t) {
      return t.group->kind_ == TaskKind::kRun;
    };
    for (std::size_t k = 0; k < n; ++k) {
      if (auto t = pop_first((own + k) % n, is_run)) return t;
    }
    return std::nullopt;
  }
  // Idle: the shared deque first — work enters the pool there, ordered
  // by its submitter (the campaign driver submits longest unit first).
  const auto any = [](const Task&) { return true; };
  if (auto t = pop_first(n - 1, any)) return t;
  for (std::size_t k = 0; k < n; ++k) {
    if (auto t = pop_first((own + k) % n, any)) return t;
  }
  return std::nullopt;
}

void Executor::Pool::execute(Task task, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  CellDeadline* const prev = adopt_cell_deadline(task.deadline);
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  (void)adopt_cell_deadline(prev);
  task.fn = nullptr;  // release captures outside the lock
  lock.lock();
  TaskGroup* group = task.group;
  if (error && !group->cancelled_) {
    group->error_ = error;
    group->cancelled_ = true;
    cancel_queued(group);
  }
  --group->pending_;
  cv.notify_all();
}

void Executor::Pool::cancel_queued(TaskGroup* group) {
  for (auto& dq : queues) {
    for (auto it = dq.begin(); it != dq.end();) {
      if (it->group == group) {
        it = dq.erase(it);
        --group->pending_;
      } else {
        ++it;
      }
    }
  }
}

void Executor::Pool::worker_loop(std::size_t index) {
  t_pool = this;
  t_queue = index;
  std::unique_lock lock(mutex);
  for (;;) {
    if (auto task = take(nullptr)) {
      execute(std::move(*task), lock);
      continue;
    }
    if (stop) return;
    cv.wait(lock);
  }
}

Executor::Executor(std::size_t workers)
    : workers_(workers == 0 ? 1 : workers) {
  if (workers_ > 1) pool_ = std::make_unique<Pool>(workers_);
}

Executor::~Executor() = default;

TaskGroup::TaskGroup(Executor& executor, TaskKind kind) noexcept
    : executor_(executor), kind_(kind) {}

TaskGroup::~TaskGroup() {
  // Tasks are still pending here only when the owner unwinds past wait()
  // with an exception of its own. The tasks reference the owner's frame,
  // so they must finish first; the owner's exception is the one that
  // propagates.
  drain();
}

void TaskGroup::run(std::function<void()> fn) {
  Executor::Pool* pool = executor_.pool_.get();
  if (pool == nullptr) {
    if (cancelled_) return;
    try {
      fn();
    } catch (...) {
      error_ = std::current_exception();
      cancelled_ = true;
    }
    return;
  }
  {
    std::lock_guard lock(pool->mutex);
    if (cancelled_) return;
    ++pending_;
    pool->queues[pool->home()].push_back(
        {std::move(fn), this, current_cell_deadline()});
  }
  pool->cv.notify_all();
}

void TaskGroup::drain() {
  Executor::Pool* pool = executor_.pool_.get();
  if (pool == nullptr) return;  // inline tasks finished in run()
  std::unique_lock lock(pool->mutex);
  while (pending_ > 0) {
    if (auto task = pool->take(this)) {
      pool->execute(std::move(*task), lock);
    } else {
      pool->cv.wait(lock);
    }
  }
}

void TaskGroup::wait() {
  drain();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace omv::core
