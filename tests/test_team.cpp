// Unit tests for omp_model/team: clocks, fork/barrier, sync episodes.

#include "omp_model/team.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace omv::ompsim {
namespace {

sim::Simulator ideal_vera() {
  return sim::Simulator(topo::Machine::vera(), sim::SimConfig::ideal());
}

TEST(SimTeam, ValidatesThreadCount) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 0;
  EXPECT_THROW(SimTeam(s, cfg), std::invalid_argument);
  cfg.n_threads = 33;  // Vera has 32 HW threads
  EXPECT_THROW(SimTeam(s, cfg), std::invalid_argument);
}

TEST(SimTeam, StartsAtZero) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 4;
  SimTeam team(s, cfg);
  team.begin_run(1);
  EXPECT_DOUBLE_EQ(team.now(), 0.0);
  EXPECT_EQ(team.size(), 4u);
}

TEST(SimTeam, ComputeAdvancesAllClocks) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 4;
  SimTeam team(s, cfg);
  team.begin_run(1);
  team.compute(0.25);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(team.clock(i), 0.25);
  }
}

TEST(SimTeam, HeterogeneousCompute) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 3;
  SimTeam team(s, cfg);
  team.begin_run(1);
  const std::vector<double> work{0.1, 0.2, 0.3};
  team.compute(work);
  EXPECT_DOUBLE_EQ(team.clock(0), 0.1);
  EXPECT_DOUBLE_EQ(team.clock(2), 0.3);
  EXPECT_DOUBLE_EQ(team.now(), 0.3);
}

TEST(SimTeam, ComputeSpanSizeMismatchThrows) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 2;
  SimTeam team(s, cfg);
  const std::vector<double> wrong{1.0};
  EXPECT_THROW(team.compute(std::span<const double>(wrong)),
               std::invalid_argument);
}

TEST(SimTeam, BarrierWaitsForSlowest) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 3;
  SimTeam team(s, cfg);
  team.begin_run(1);
  team.compute({0.1, 0.5, 0.2});
  const double cost = team.barrier_cost();
  team.barrier();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(team.clock(i), 0.5 + cost);
  }
}

TEST(SimTeam, TreeBarrierCostGrowsLogarithmically) {
  auto s = sim::Simulator(topo::Machine::dardel(), sim::SimConfig::ideal());
  double prev = 0.0;
  for (std::size_t t : {2u, 4u, 16u, 64u}) {
    TeamConfig cfg;
    cfg.n_threads = t;
    SimTeam team(s, cfg);
    const double c = team.barrier_cost();
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(SimTeam, BarrierCostIncludesTopologySpan) {
  auto s = sim::Simulator(topo::Machine::dardel(), sim::SimConfig::ideal());
  // 16 threads within one NUMA domain vs 16 spread across both sockets.
  TeamConfig within;
  within.n_threads = 16;
  within.places_spec = "{0}:16:1";  // cores 0-15 = NUMA 0
  SimTeam a(s, within);

  TeamConfig across;
  across.n_threads = 16;
  across.bind = topo::ProcBind::spread;  // spread over all places
  SimTeam b(s, across);

  EXPECT_LT(a.barrier_cost(), b.barrier_cost());
}

TEST(SimTeam, CentralizedBarrierCostlierAtScale) {
  auto s = sim::Simulator(topo::Machine::dardel(), sim::SimConfig::ideal());
  TeamConfig tree;
  tree.n_threads = 128;
  tree.barrier_alg = BarrierAlgorithm::tree;
  TeamConfig central = tree;
  central.barrier_alg = BarrierAlgorithm::centralized;
  SimTeam a(s, tree);
  SimTeam b(s, central);
  EXPECT_LT(a.barrier_cost(), b.barrier_cost());
}

TEST(SimTeam, ForkAlignsToFrontier) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 2;
  SimTeam team(s, cfg);
  team.begin_run(1);
  team.compute({0.0, 1.0});
  team.fork();
  EXPECT_DOUBLE_EQ(team.clock(0), 1.0 + team.fork_cost());
}

TEST(SimTeam, BeginRepAlignsClocks) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 3;
  cfg.inter_rep_gap = 0.05;
  SimTeam team(s, cfg);
  team.begin_run(1);
  team.compute({0.1, 0.7, 0.3});
  team.begin_rep();
  // Clocks align at the frontier plus the inter-repetition gap.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(team.clock(i), 0.75);
  }
}

TEST(SimTeam, BeginRunResetsClocks) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 2;
  SimTeam team(s, cfg);
  team.begin_run(1);
  team.compute(5.0);
  team.begin_run(2);
  EXPECT_DOUBLE_EQ(team.now(), 0.0);
}

TEST(SimTeam, SetClocksValidates) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 2;
  SimTeam team(s, cfg);
  const std::vector<double> wrong{1.0, 2.0, 3.0};
  EXPECT_THROW(team.set_clocks(wrong), std::invalid_argument);
}

TEST(SimTeam, PinnedPlacementFollowsCloseMapping) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 4;
  cfg.bind = topo::ProcBind::close;
  SimTeam team(s, cfg);
  team.begin_run(1);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(team.placement().hw[i], i);
  }
}

TEST(SimTeam, SyncEpisodeChargesOversubscribedThreads) {
  // Pin two threads to the same HW thread via an explicit single place.
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 2;
  cfg.places_spec = "{3}";
  cfg.bind = topo::ProcBind::close;
  SimTeam team(s, cfg);
  team.begin_run(1);
  EXPECT_EQ(team.placement().share[0], 2u);
  const double before = team.now();
  team.sync_episode(0.0, 1);
  EXPECT_GT(team.now(), before);  // stall charged even with zero base cost
}

TEST(SimTeam, NoSmtCoscheduleOnVera) {
  auto s = ideal_vera();
  TeamConfig cfg;
  cfg.n_threads = 32;
  SimTeam team(s, cfg);
  EXPECT_FALSE(team.any_smt_coscheduled());
}

TEST(SimTeam, SmtCoscheduleDetectedOnDardelMt) {
  auto s = sim::Simulator(topo::Machine::dardel(), sim::SimConfig::ideal());
  TeamConfig cfg;
  cfg.n_threads = 32;
  cfg.places_spec = "{0}:16:1,{128}:16:1";  // both siblings of cores 0-15
  SimTeam team(s, cfg);
  EXPECT_TRUE(team.any_smt_coscheduled());
}

TEST(SimTeam, PlacementSummariesFollowMigrations) {
  // Every thread moves to a uniformly random HW thread at every rep, so
  // threads stack on one HW thread, pair up on SMT siblings and change the
  // team's NUMA and socket spans. The placement's team-wide summary, which
  // barrier_cost, any_smt_coscheduled and sync_episode read, must follow
  // each move.
  auto s = sim::Simulator(topo::Machine::dardel(), sim::SimConfig::ideal());
  const auto& machine = s.machine();
  const auto& c = s.costs();
  TeamConfig cfg;
  cfg.n_threads = 12;
  cfg.bind = topo::ProcBind::none;
  cfg.placement.migrate_prob = 1.0;
  cfg.placement.bad_migration_prob = 1.0;
  SimTeam team(s, cfg);
  team.begin_run(3);

  std::set<double> costs_seen;
  std::set<bool> smt_seen;
  std::set<bool> oversub_seen;
  for (int rep = 0; rep < 200; ++rep) {
    team.begin_rep();
    const auto& pl = team.placement();
    std::set<std::size_t> numas;
    std::set<std::size_t> sockets;
    bool smt = false;
    bool oversub = false;
    for (std::size_t i = 0; i < pl.hw.size(); ++i) {
      numas.insert(machine.thread(pl.hw[i]).numa);
      sockets.insert(machine.thread(pl.hw[i]).socket);
      smt = smt || pl.smt_coscheduled[i];
      oversub = oversub || pl.share[i] > 1;
    }
    const double expect =
        c.barrier_base +
        c.barrier_per_level * static_cast<double>(sim::ceil_log2(12)) +
        c.barrier_numa_step * static_cast<double>(numas.size() - 1) +
        c.barrier_socket_step * static_cast<double>(sockets.size() - 1);
    ASSERT_EQ(team.barrier_cost(), expect) << "rep " << rep;
    ASSERT_EQ(team.any_smt_coscheduled(), smt) << "rep " << rep;
    // With aligned clocks, a zero-cost episode moves the frontier only
    // through the stalls of oversubscribed threads.
    team.align_clocks(team.now());
    const double before = team.now();
    team.sync_episode(0.0, 1);
    ASSERT_EQ(team.now() > before, oversub) << "rep " << rep;
    costs_seen.insert(expect);
    smt_seen.insert(smt);
    oversub_seen.insert(oversub);
  }
  // The reps covered changing spans and both states of each flag.
  EXPECT_GE(costs_seen.size(), 3u);
  EXPECT_EQ(smt_seen.size(), 2u);
  EXPECT_EQ(oversub_seen.size(), 2u);
}

}  // namespace
}  // namespace omv::ompsim
