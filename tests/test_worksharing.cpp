// Unit tests for omp_model/worksharing: schedule semantics and the
// central-queue engine.

#include "omp_model/worksharing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace omv::ompsim {
namespace {

sim::Simulator ideal_dardel() {
  return sim::Simulator(topo::Machine::dardel(), sim::SimConfig::ideal());
}

SimTeam make_team(sim::Simulator& s, std::size_t threads) {
  TeamConfig cfg;
  cfg.n_threads = threads;
  SimTeam team(s, cfg);
  team.begin_run(1);
  return team;
}

TEST(Schedule, ParseAndNames) {
  EXPECT_EQ(parse_schedule("static"), Schedule::static_);
  EXPECT_EQ(parse_schedule("dynamic"), Schedule::dynamic);
  EXPECT_EQ(parse_schedule("guided"), Schedule::guided);
  EXPECT_THROW(static_cast<void>(parse_schedule("chaotic")), std::invalid_argument);
  EXPECT_STREQ(schedule_name(Schedule::static_), "static");
  EXPECT_STREQ(schedule_name(Schedule::dynamic), "dynamic");
  EXPECT_STREQ(schedule_name(Schedule::guided), "guided");
}

// Property: static chunk assignment covers every iteration exactly once.
struct StaticCase {
  std::size_t threads;
  std::size_t chunk;
  std::size_t total;
};

class StaticCoverage : public ::testing::TestWithParam<StaticCase> {};

TEST_P(StaticCoverage, AllIterationsAssignedOnce) {
  const auto [t, c, total] = GetParam();
  std::size_t sum = 0;
  for (std::size_t i = 0; i < t; ++i) {
    sum += static_iters_for_thread(i, t, c, total);
  }
  EXPECT_EQ(sum, total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticCoverage,
    ::testing::Values(StaticCase{1, 1, 100}, StaticCase{4, 1, 100},
                      StaticCase{4, 0, 100},  // blocked (no chunk)
                      StaticCase{4, 7, 100}, StaticCase{30, 1, 8192 * 30},
                      StaticCase{254, 1, 8192 * 254}, StaticCase{3, 8, 7},
                      StaticCase{8, 16, 15},  // fewer chunks than threads
                      StaticCase{5, 3, 0}));

TEST(StaticIters, BlockedIsNearEqual) {
  // schedule(static) without chunk: sizes differ by at most one.
  const std::size_t t = 7;
  const std::size_t total = 100;
  std::size_t mn = total;
  std::size_t mx = 0;
  for (std::size_t i = 0; i < t; ++i) {
    const auto n = static_iters_for_thread(i, t, 0, total);
    mn = std::min(mn, n);
    mx = std::max(mx, n);
  }
  EXPECT_LE(mx - mn, 1u);
}

TEST(StaticIters, RoundRobinChunk1IsBalanced) {
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(static_iters_for_thread(i, 4, 1, 8), 2u);
  }
}

TEST(ForLoop, StaticIdealTimeMatchesWorkPerThread) {
  auto s = ideal_dardel();
  auto team = make_team(s, 4);
  const double t0 = team.now();
  for_loop(team, Schedule::static_, 1, 4 * 100, 1e-6);
  const double elapsed = team.now() - t0;
  // 100 iterations per thread + setup + barrier.
  const double expected = 100e-6 + s.costs().static_setup +
                          team.barrier_cost();
  EXPECT_NEAR(elapsed, expected, 1e-9);
}

TEST(ForLoop, DynamicCompletesAllWork) {
  auto s = ideal_dardel();
  auto team = make_team(s, 8);
  const double t0 = team.now();
  for_loop(team, Schedule::dynamic, 1, 8 * 64, 1e-6);
  // All 512 iterations of 1us each on 8 threads: at least 64us of pure work.
  EXPECT_GE(team.now() - t0, 64e-6);
}

TEST(ForLoop, DynamicOverheadGrowsWithThreads) {
  auto s = ideal_dardel();
  // Per-iteration overhead = grab cost, which grows with contention.
  auto team_small = make_team(s, 2);
  const double t0 = team_small.now();
  for_loop(team_small, Schedule::dynamic, 1, 2 * 256, 1e-6);
  const double per_iter_small = (team_small.now() - t0) / 256.0;

  auto team_big = make_team(s, 128);
  const double t1 = team_big.now();
  for_loop(team_big, Schedule::dynamic, 1, 128 * 256, 1e-6);
  const double per_iter_big = (team_big.now() - t1) / 256.0;

  EXPECT_GT(per_iter_big, per_iter_small);
}

TEST(ForLoop, DynamicBalancesHeterogeneousSpeeds) {
  // One slow thread (oversubscribed x2): dynamic self-balances so the
  // total is far below the static worst case.
  auto cfg = sim::SimConfig::ideal();
  sim::Simulator s(topo::Machine::dardel(), cfg);

  TeamConfig slow_cfg;
  slow_cfg.n_threads = 4;
  // Threads 0 and 1 share HW thread 0; threads 2,3 get their own.
  slow_cfg.places_spec = "{0},{0},{1},{2}";
  SimTeam dyn_team(s, slow_cfg);
  dyn_team.begin_run(1);
  const double t0 = dyn_team.now();
  for_loop(dyn_team, Schedule::dynamic, 1, 400, 1e-6);
  const double dyn_time = dyn_team.now() - t0;

  SimTeam stat_team(s, slow_cfg);
  stat_team.begin_run(1);
  const double t1 = stat_team.now();
  for_loop(stat_team, Schedule::static_, 1, 400, 1e-6);
  const double stat_time = stat_team.now() - t1;

  EXPECT_LT(dyn_time, stat_time);
}

TEST(ForLoop, GuidedCheaperThanDynamicChunk1) {
  // Guided's decaying chunk sizes mean far fewer grabs.
  auto s = ideal_dardel();
  auto team_d = make_team(s, 16);
  const double t0 = team_d.now();
  for_loop(team_d, Schedule::dynamic, 1, 16 * 512, 1e-7);
  const double dyn = team_d.now() - t0;

  auto team_g = make_team(s, 16);
  const double t1 = team_g.now();
  for_loop(team_g, Schedule::guided, 1, 16 * 512, 1e-7);
  const double gui = team_g.now() - t1;
  EXPECT_LT(gui, dyn);
}

TEST(ForLoop, CoarseningPreservesTotalWithinTolerance) {
  auto s = ideal_dardel();
  auto team_exact = make_team(s, 8);
  const double t0 = team_exact.now();
  for_loop(team_exact, Schedule::dynamic, 1, 8 * 128, 1e-6, /*coarsen=*/1);
  const double exact = team_exact.now() - t0;

  auto team_coarse = make_team(s, 8);
  const double t1 = team_coarse.now();
  for_loop(team_coarse, Schedule::dynamic, 1, 8 * 128, 1e-6, /*coarsen=*/16);
  const double coarse = team_coarse.now() - t1;

  EXPECT_NEAR(coarse, exact, exact * 0.02);
}

TEST(ForLoop, ZeroIterationsJustBarriers) {
  auto s = ideal_dardel();
  auto team = make_team(s, 4);
  const double t0 = team.now();
  for_loop(team, Schedule::dynamic, 1, 0, 1e-6);
  EXPECT_NEAR(team.now() - t0, team.barrier_cost(), 1e-9);
}

TEST(ForLoop, EndsWithAlignedClocks) {
  auto s = ideal_dardel();
  auto team = make_team(s, 8);
  for_loop(team, Schedule::guided, 1, 1000, 1e-6);
  for (std::size_t i = 1; i < team.size(); ++i) {
    EXPECT_DOUBLE_EQ(team.clock(i), team.clock(0));
  }
}

// ------------------------------------- closed-form grabs vs per-chunk loop

// The central-queue engine as it stood before grabs became closed-form:
// one inner step per chunk and a heap of (clock, thread). Built on the
// public SimTeam API as the oracle for for_loop's dynamic and guided
// schedules.
void per_chunk_central_queue_loop(SimTeam& team, std::size_t total_iters,
                                  double work_per_iter, double grab_cost,
                                  std::size_t first_chunk,
                                  std::size_t min_chunk, bool guided,
                                  std::size_t coarsen) {
  const std::size_t n = team.size();
  using Entry = std::pair<double, std::size_t>;  // (clock, thread)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  std::vector<double> clock(n);
  for (std::size_t i = 0; i < n; ++i) {
    clock[i] = team.clock(i);
    pq.emplace(clock[i], i);
  }

  std::size_t remaining = total_iters;
  std::size_t chunk = std::max<std::size_t>(first_chunk, 1);
  while (remaining > 0) {
    auto [t, i] = pq.top();
    pq.pop();
    std::size_t grabbed_chunks = 0;
    std::size_t iters = 0;
    while (grabbed_chunks < coarsen && remaining > 0) {
      if (guided) {
        chunk = std::max<std::size_t>(min_chunk, remaining / (2 * n));
        chunk = std::max<std::size_t>(chunk, 1);
      }
      const std::size_t take = std::min(chunk, remaining);
      iters += take;
      remaining -= take;
      ++grabbed_chunks;
    }
    const double work = static_cast<double>(iters) * work_per_iter +
                        static_cast<double>(grabbed_chunks) * grab_cost;
    const double done = team.exec_at(i, t, work);
    clock[i] = done;
    pq.emplace(done, i);
  }
  team.set_clocks(clock);
  team.barrier();
}

/// for_loop's dynamic/guided dispatch onto the per-chunk oracle.
void per_chunk_for_loop(SimTeam& team, Schedule kind, std::size_t chunk,
                        std::size_t total_iters, double work_per_iter,
                        std::size_t coarsen) {
  const auto& costs = team.simulator().costs();
  const std::size_t n = team.size();
  const double grab = costs.sched_grab_base +
                      costs.sched_grab_contention * static_cast<double>(n);
  const std::size_t min_chunk = std::max<std::size_t>(chunk, 1);
  if (kind == Schedule::dynamic) {
    per_chunk_central_queue_loop(team, total_iters, work_per_iter, grab,
                                 min_chunk, min_chunk, /*guided=*/false,
                                 std::max<std::size_t>(coarsen, 1));
  } else {
    per_chunk_central_queue_loop(
        team, total_iters, work_per_iter, grab,
        std::max<std::size_t>(total_iters / (2 * n), 1), min_chunk,
        /*guided=*/true, /*coarsen=*/1);
  }
}

/// True when `total` is a whole number of chunk x coarsen batches (without
/// forming the product when it would exceed `total`).
bool whole_batches(std::size_t total, std::size_t chunk, std::size_t coarsen) {
  if (coarsen > total / chunk) return total == 0;
  return total % (chunk * coarsen) == 0;
}

class ClosedFormGrabs
    : public ::testing::TestWithParam<
          std::tuple<Schedule, std::size_t, std::size_t>> {};

// Two identically seeded Dardel teams (noise, frequency and SMT draws all
// live): one runs for_loop, the other the per-chunk oracle. Every grab must
// cover the same iterations, so every exec_at sees the same arguments and
// the team clocks agree to the bit.
TEST_P(ClosedFormGrabs, BitEqualToPerChunkLoop) {
  const auto [kind, chunk, threads] = GetParam();
  const std::size_t coarsens[] = {1, 2, 7, 208, SIZE_MAX};
  // Empty, less than one chunk, and a ragged tail (every total is whole
  // batches of one iteration, so chunk = coarsen = 1 has none).
  const std::size_t ragged = 16 * threads * chunk + chunk / 2 + 1;
  const std::size_t totals[] = {0, chunk - 1, ragged};
  for (const std::size_t coarsen : coarsens) {
    if (chunk > 1 || coarsen > 1) {
      ASSERT_FALSE(whole_batches(ragged, chunk, coarsen)) << coarsen;
    }
    for (const std::size_t total : totals) {
      sim::Simulator sim_new(topo::Machine::dardel(),
                             sim::SimConfig::dardel());
      sim::Simulator sim_old(topo::Machine::dardel(),
                             sim::SimConfig::dardel());
      TeamConfig cfg;
      cfg.n_threads = threads;
      SimTeam team_new(sim_new, cfg, /*seed=*/7);
      SimTeam team_old(sim_old, cfg, /*seed=*/7);
      team_new.begin_run(11);
      team_old.begin_run(11);
      for (int rep = 0; rep < 2; ++rep) {
        team_new.begin_rep();
        team_old.begin_rep();
        for_loop(team_new, kind, chunk, total, 5e-7, coarsen);
        per_chunk_for_loop(team_old, kind, chunk, total, 5e-7, coarsen);
        for (std::size_t i = 0; i < threads; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(team_new.clock(i)),
                    std::bit_cast<std::uint64_t>(team_old.clock(i)))
              << schedule_name(kind) << " chunk=" << chunk
              << " threads=" << threads << " coarsen=" << coarsen
              << " total=" << total << " rep=" << rep << " thread=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DardelGrid, ClosedFormGrabs,
    ::testing::Combine(::testing::Values(Schedule::dynamic, Schedule::guided),
                       ::testing::Values(1, 3, 8, 128),
                       ::testing::Values(1, 4, 30, 254)),
    [](const auto& info) {
      return std::string(schedule_name(std::get<0>(info.param))) +
             "_chunk" + std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace omv::ompsim
