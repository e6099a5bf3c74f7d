// The executor (core/executor) and everything that runs on it: protocol
// runs sharded by run_experiment_parallel, and task-scoped cell deadlines.
//
// The load-bearing properties: for a deterministic kernel the sharded path
// produces exactly the RunMatrix of the serial run_experiment loop at any
// width; a thread blocked in a wait keeps running tasks, so nested groups
// cannot deadlock; and every task polls the deadline of the cell that
// submitted it, on whichever thread runs it.

#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_suite/syncbench_sim.hpp"
#include "core/deadline.hpp"
#include "core/experiment.hpp"
#include "core/rng.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"

namespace omv {
namespace {

using namespace std::chrono_literals;
using core::adopt_cell_deadline;
using core::arm_cell_deadline;
using core::cell_deadline_exceeded;
using core::CellDeadline;
using core::CellTimeout;
using core::check_cell_deadline;
using core::clear_cell_deadline;
using core::current_cell_deadline;
using core::Executor;
using core::interruptible_stall;
using core::TaskGroup;
using core::TaskKind;

/// A deterministic kernel: pure function of (run_seed, rep), exactly what
/// the simulator-backed kernels are after begin_run re-derives their state.
double pure_kernel(const RepContext& c) {
  Rng rng(c.run_seed);
  double v = 0.0;
  for (std::size_t i = 0; i <= c.rep; ++i) v = rng.next_double();
  return v + static_cast<double>(c.rep);
}

RunKernelFactory pure_factory() {
  return [](const RunSlot&) -> RepKernel { return pure_kernel; };
}

ExperimentSpec small_spec(std::uint64_t seed = 42) {
  ExperimentSpec spec;
  spec.runs = 7;
  spec.reps = 11;
  spec.warmup = 2;
  spec.seed = seed;
  return spec;
}

void expect_bit_identical(const RunMatrix& a, const RunMatrix& b) {
  ASSERT_EQ(a.runs(), b.runs());
  for (std::size_t r = 0; r < a.runs(); ++r) {
    ASSERT_EQ(a.run(r).size(), b.run(r).size()) << "run " << r;
    for (std::size_t k = 0; k < a.run(r).size(); ++k) {
      // Exact double equality on purpose: the guarantee is bit-identity,
      // not approximate agreement.
      EXPECT_EQ(a.run(r)[k], b.run(r)[k]) << "run " << r << " rep " << k;
    }
  }
}

/// Spins until `done()` holds or `limit` passes; returns done().
template <typename Pred>
bool spin_until(Pred done, std::chrono::milliseconds limit = 10'000ms) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (!done() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  return done();
}

TEST(Executor, RunsTasksAndReturnsResults) {
  Executor ex(2);
  EXPECT_EQ(ex.workers(), 2u);
  std::atomic<int> sum{0};
  TaskGroup group(ex, TaskKind::kRun);
  group.run([&] { sum += 7; });
  group.run([&] { sum += 35; });
  group.wait();
  EXPECT_EQ(sum.load(), 42);
}

TEST(Executor, AtLeastOneWorker) {
  Executor ex(0);
  EXPECT_EQ(ex.workers(), 1u);
  bool ran = false;
  TaskGroup group(ex, TaskKind::kUnit);
  group.run([&] { ran = true; });
  group.wait();
  EXPECT_TRUE(ran);
}

// At one worker there is no thread at all: every task — nested ones too —
// runs on the caller, at submission, in submission order.
TEST(Executor, OneWorkerRunsEveryTaskOnTheCaller) {
  Executor ex(1);
  const auto caller = std::this_thread::get_id();
  std::vector<int> order;
  bool off_thread = false;
  TaskGroup units(ex, TaskKind::kUnit);
  for (int u = 0; u < 3; ++u) {
    units.run([&, u] {
      off_thread |= std::this_thread::get_id() != caller;
      order.push_back(u);
      TaskGroup runs(ex, TaskKind::kRun);
      for (int r = 0; r < 2; ++r) {
        runs.run([&, u, r] {
          off_thread |= std::this_thread::get_id() != caller;
          order.push_back(10 * (u + 1) + r);
        });
      }
      runs.wait();
    });
    // Inline: the unit and its runs are done before run() returns.
    EXPECT_EQ(order.size(), static_cast<std::size_t>(3 * (u + 1)));
  }
  units.wait();
  EXPECT_FALSE(off_thread);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 1, 20, 21, 2, 30, 31}));
}

// The deadlock a plain pool would hit: at W=2, both workers run a task
// that blocks waiting on its own ten subtasks. A waiting thread runs
// queued subtasks itself, so all four tasks complete — and the subtasks
// hold back until both workers are in a wait at the same time.
TEST(Executor, NestedWaitsCompleteWithEveryWorkerBlocked) {
  Executor ex(2);
  std::atomic<int> in_wait{0};
  std::atomic<int> peak{0};
  std::atomic<int> done{0};
  TaskGroup outer(ex, TaskKind::kUnit);
  for (int t = 0; t < 4; ++t) {
    outer.run([&] {
      TaskGroup inner(ex, TaskKind::kRun);
      for (int s = 0; s < 10; ++s) {
        inner.run([&] {
          (void)spin_until([&] { return peak.load() >= 2; });
          ++done;
        });
      }
      const int now = ++in_wait;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      inner.wait();
      --in_wait;
    });
  }
  outer.wait();
  EXPECT_EQ(done.load(), 40);
  EXPECT_EQ(peak.load(), 2) << "the two workers never waited together";
}

// The first exception cancels the group's unstarted tasks, and wait()
// rethrows it only after the tasks already running have finished. The
// executor keeps serving afterwards.
TEST(Executor, FirstExceptionRethrownAfterGroupDrains) {
  Executor ex(3);
  std::atomic<bool> slow_started{false};
  std::atomic<bool> slow_finished{false};
  std::atomic<int> cheap_ran{0};
  {
    TaskGroup group(ex, TaskKind::kRun);
    group.run([&] {
      slow_started.store(true);
      std::this_thread::sleep_for(50ms);
      slow_finished.store(true);
    });
    group.run([&] {
      (void)spin_until([&] { return slow_started.load(); });
      throw std::runtime_error("first");
    });
    for (int i = 0; i < 100; ++i) {
      group.run([&] {
        std::this_thread::sleep_for(1ms);
        ++cheap_ran;
      });
    }
    try {
      group.wait();
      ADD_FAILURE() << "wait() did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first");
      EXPECT_TRUE(slow_finished.load()) << "rethrown before the group drained";
    }
  }
  EXPECT_LT(cheap_ran.load(), 100) << "no unstarted task was cancelled";

  const ExperimentSpec spec = small_spec();
  expect_bit_identical(run_experiment(spec, pure_kernel),
                       run_experiment_parallel(spec, pure_factory(), ex));
}

// Units enter the pool in submission order (the campaign driver submits
// the longest first), and an idle worker takes the oldest.
TEST(Executor, DispatchesInSubmissionOrder) {
  Executor ex(2);
  std::atomic<bool> gate_held{false};
  std::atomic<bool> release{false};
  TaskGroup gate(ex, TaskKind::kUnit);
  gate.run([&] {
    gate_held.store(true);
    (void)spin_until([&] { return release.load(); });
  });
  // The gate is a unit of another group: once the pool thread holds it,
  // nothing else can run until it is released.
  ASSERT_TRUE(spin_until([&] { return gate_held.load(); }));
  std::mutex mutex;
  std::vector<int> order;
  TaskGroup units(ex, TaskKind::kUnit);
  for (int id = 1; id <= 3; ++id) {
    units.run([&, id] {
      std::lock_guard lock(mutex);
      order.push_back(id);
    });
  }
  // Stay out of the pool (no wait) so the one pool thread, once freed,
  // drains the units alone.
  release.store(true);
  EXPECT_TRUE(spin_until([&] {
    std::lock_guard lock(mutex);
    return order.size() == 3;
  }));
  gate.wait();
  units.wait();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// A run executed on another worker than its cell's still polls its own
// cell's deadline: the executor installs the submitter's slot around
// every task.
TEST(Executor, SubtaskSeesItsCellDeadlineOnAnyWorker) {
  Executor ex(2);
  std::atomic<bool> unit_started{false};
  std::atomic<int> off_thread{0};
  std::atomic<int> wrong_slot{0};
  TaskGroup units(ex, TaskKind::kUnit);
  units.run([&] {
    unit_started.store(true);
    arm_cell_deadline(10'000ms);
    CellDeadline* const mine = current_cell_deadline();
    const auto home = std::this_thread::get_id();
    TaskGroup runs(ex, TaskKind::kRun);
    for (int r = 0; r < 8; ++r) {
      runs.run([&, mine, home] {
        if (std::this_thread::get_id() != home) ++off_thread;
        if (current_cell_deadline() != mine) ++wrong_slot;
        std::this_thread::sleep_for(2ms);
      });
    }
    // Hold back until the other worker has taken one of our runs.
    (void)spin_until([&] { return off_thread.load() > 0; });
    runs.wait();
    clear_cell_deadline();
  });
  // The pool thread takes the unit; this thread, waiting, helps with its
  // runs — with the unit's deadline installed, not its own (none).
  ASSERT_TRUE(spin_until([&] { return unit_started.load(); }));
  units.wait();
  EXPECT_GT(off_thread.load(), 0);
  EXPECT_EQ(wrong_slot.load(), 0);
  EXPECT_EQ(current_cell_deadline(), nullptr);
}

// Two cells running concurrently on the two workers arm different
// budgets; their runs, wherever they execute, see only their own.
TEST(Executor, ConcurrentCellsKeepIndependentBudgets) {
  Executor ex(2);
  std::atomic<bool> short_armed{false};
  std::atomic<bool> long_armed{false};
  std::atomic<bool> short_tripped{false};
  std::atomic<bool> long_tripped{false};
  std::atomic<int> wrong_slot{0};
  const auto shard = [&](TaskGroup& runs, CellDeadline* mine) {
    for (int r = 0; r < 4; ++r) {
      runs.run([&wrong_slot, mine] {
        if (current_cell_deadline() != mine) ++wrong_slot;
      });
    }
  };
  TaskGroup units(ex, TaskKind::kUnit);
  units.run([&] {
    arm_cell_deadline(20ms);
    short_armed.store(true);
    (void)spin_until([&] { return long_armed.load(); });
    TaskGroup runs(ex, TaskKind::kRun);
    shard(runs, current_cell_deadline());
    runs.wait();
    try {
      interruptible_stall(500ms);
    } catch (const CellTimeout&) {
      short_tripped.store(true);
    }
    clear_cell_deadline();
  });
  units.run([&] {
    (void)spin_until([&] { return short_armed.load(); });
    arm_cell_deadline(10'000ms);
    long_armed.store(true);
    TaskGroup runs(ex, TaskKind::kRun);
    shard(runs, current_cell_deadline());
    runs.wait();
    std::this_thread::sleep_for(60ms);  // well past the short budget
    try {
      check_cell_deadline();
    } catch (const CellTimeout&) {
      long_tripped.store(true);
    }
    clear_cell_deadline();
  });
  units.wait();
  EXPECT_TRUE(short_tripped.load()) << "the 20ms budget never tripped";
  EXPECT_FALSE(long_tripped.load()) << "the 10s budget tripped early";
  EXPECT_EQ(wrong_slot.load(), 0);
}

TEST(ParallelRunner, MatchesSerialBitIdentical) {
  const auto spec = small_spec();
  const RunMatrix serial = run_experiment(spec, pure_kernel);
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{64}}) {
    Executor ex(workers);
    const RunMatrix parallel =
        run_experiment_parallel(spec, pure_factory(), ex);
    expect_bit_identical(serial, parallel);
  }
}

// A one-worker executor runs each protocol run inline, in order: it is the
// serial program, and a wider pool must reproduce its matrix exactly.
TEST(ParallelRunner, SimSyncBenchParallelMatchesSerial) {
  sim::Simulator s(topo::Machine::vera(), sim::SimConfig::vera());
  ompsim::TeamConfig team;
  team.n_threads = 8;
  bench::SimSyncBench sb(s, team);
  ExperimentSpec spec;
  spec.runs = 4;
  spec.reps = 5;
  spec.seed = 99;
  Executor one(1);
  Executor three(3);
  const auto serial =
      sb.run_protocol(bench::SyncConstruct::reduction, spec, one);
  const auto parallel =
      sb.run_protocol(bench::SyncConstruct::reduction, spec, three);
  expect_bit_identical(serial, parallel);
}

TEST(ParallelRunner, Jobs1RunsInlineOnCallingThread) {
  std::atomic<int> off_thread{0};
  const auto caller = std::this_thread::get_id();
  ExperimentSpec spec = small_spec();
  const auto factory = [&](const RunSlot&) -> RepKernel {
    return [&, caller](const RepContext& c) {
      if (std::this_thread::get_id() != caller) ++off_thread;
      return pure_kernel(c);
    };
  };
  Executor ex(1);
  const auto m = run_experiment_parallel(spec, factory, ex);
  EXPECT_EQ(off_thread.load(), 0);
  expect_bit_identical(run_experiment(spec, pure_kernel), m);
}

TEST(ParallelRunner, MoreJobsThanRunsStillCorrect) {
  ExperimentSpec spec = small_spec();
  spec.runs = 2;
  Executor ex(64);
  const auto m = run_experiment_parallel(spec, pure_factory(), ex);
  expect_bit_identical(run_experiment(spec, pure_kernel), m);
}

TEST(ParallelRunner, KernelExceptionPropagates) {
  ExperimentSpec spec = small_spec();
  const auto factory = [](const RunSlot& slot) -> RepKernel {
    return [run = slot.run](const RepContext& c) -> double {
      if (run == 3 && c.rep == 1 && !c.warmup) {
        throw std::runtime_error("kernel blew up");
      }
      return 1.0;
    };
  };
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    Executor ex(workers);
    EXPECT_THROW((void)run_experiment_parallel(spec, factory, ex),
                 std::runtime_error)
        << "workers=" << workers;
  }
}

TEST(ParallelRunner, FactoryExceptionPropagates) {
  ExperimentSpec spec = small_spec();
  const auto factory = [](const RunSlot& slot) -> RepKernel {
    if (slot.run == 1) throw std::logic_error("no kernel for you");
    return pure_kernel;
  };
  Executor ex(4);
  EXPECT_THROW((void)run_experiment_parallel(spec, factory, ex),
               std::logic_error);
}

TEST(ParallelRunner, FactorySeesProtocolRunSeeds) {
  ExperimentSpec spec = small_spec(1234);
  std::mutex mu;
  std::vector<RunSlot> slots;
  const auto factory = [&](const RunSlot& slot) -> RepKernel {
    {
      std::lock_guard lock(mu);
      slots.push_back(slot);
    }
    return pure_kernel;
  };
  Executor ex(4);
  (void)run_experiment_parallel(spec, factory, ex);
  ASSERT_EQ(slots.size(), spec.runs);
  for (const auto& slot : slots) {
    EXPECT_EQ(slot.run_seed, derive_run_seed(spec.seed, slot.run));
  }
}

TEST(ParallelRunner, ResolveJobs) {
  EXPECT_GE(core::resolve_jobs(0), 1u);
  EXPECT_EQ(core::resolve_jobs(1), 1u);
  EXPECT_EQ(core::resolve_jobs(7), 7u);
}

TEST(Deadline, DisarmedByDefault) {
  EXPECT_EQ(current_cell_deadline(), nullptr);
  EXPECT_FALSE(cell_deadline_exceeded());
  EXPECT_NO_THROW(check_cell_deadline());
}

TEST(Deadline, ArmTripClearOnOneThread) {
  arm_cell_deadline(1ms);
  EXPECT_NE(current_cell_deadline(), nullptr);
  std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(cell_deadline_exceeded());
  EXPECT_THROW(check_cell_deadline(), CellTimeout);
  clear_cell_deadline();
  EXPECT_EQ(current_cell_deadline(), nullptr);
  EXPECT_NO_THROW(check_cell_deadline());
}

TEST(Deadline, ZeroBudgetDisarms) {
  arm_cell_deadline(50ms);
  ASSERT_NE(current_cell_deadline(), nullptr);
  arm_cell_deadline(0ms);
  EXPECT_EQ(current_cell_deadline(), nullptr);
  EXPECT_FALSE(cell_deadline_exceeded());
}

// The core regression: two overlapping cells with different budgets on
// different threads. Under the old process-global slot, cell B's 10s
// re-arm would erase cell A's 20ms budget (A never times out) and A's
// expiry could trip B. Task-scoped slots keep the budgets independent.
TEST(Deadline, OverlappingCellsKeepIndependentBudgets) {
  std::atomic<bool> a_armed{false};
  std::atomic<bool> b_armed{false};
  std::atomic<bool> a_timed_out{false};
  std::atomic<bool> b_timed_out{false};

  std::thread cell_a([&] {
    arm_cell_deadline(20ms);
    a_armed.store(true);
    while (!b_armed.load()) std::this_thread::sleep_for(1ms);
    // B re-armed its own (much longer) budget after A armed; A's 20ms
    // budget must still trip.
    try {
      interruptible_stall(500ms);
    } catch (const CellTimeout&) {
      a_timed_out.store(true);
    }
    clear_cell_deadline();
  });
  std::thread cell_b([&] {
    while (!a_armed.load()) std::this_thread::sleep_for(1ms);
    arm_cell_deadline(10'000ms);
    b_armed.store(true);
    // Wait past A's expiry (and past A's clear): B's own budget is huge
    // and must never trip, even while A's slot expires and disarms.
    std::this_thread::sleep_for(60ms);
    try {
      check_cell_deadline();
    } catch (const CellTimeout&) {
      b_timed_out.store(true);
    }
    clear_cell_deadline();
  });
  cell_a.join();
  cell_b.join();
  EXPECT_TRUE(a_timed_out.load()) << "cell A's 20ms budget never tripped";
  EXPECT_FALSE(b_timed_out.load()) << "cell B tripped a deadline it "
                                      "never exceeded";
}

// Shard workers adopt the submitting cell's slot: the adopted thread
// observes the owner's budget, and clearing on the worker detaches the
// worker without disarming the owner.
TEST(Deadline, AdoptionSharesTheOwnersBudget) {
  arm_cell_deadline(5ms);
  omv::core::CellDeadline* owner = current_cell_deadline();
  ASSERT_NE(owner, nullptr);

  std::atomic<bool> worker_saw_timeout{false};
  std::thread worker([&] {
    EXPECT_EQ(current_cell_deadline(), nullptr);
    omv::core::CellDeadline* prev = adopt_cell_deadline(owner);
    EXPECT_EQ(prev, nullptr);
    EXPECT_EQ(current_cell_deadline(), owner);
    std::this_thread::sleep_for(10ms);
    worker_saw_timeout.store(cell_deadline_exceeded());
    // Detaching the worker must not touch the owner's armed value.
    adopt_cell_deadline(prev);
    EXPECT_EQ(current_cell_deadline(), nullptr);
  });
  worker.join();
  EXPECT_TRUE(worker_saw_timeout.load());
  // The owner still observes its own (expired) deadline.
  EXPECT_TRUE(cell_deadline_exceeded());
  clear_cell_deadline();
}

}  // namespace
}  // namespace omv
