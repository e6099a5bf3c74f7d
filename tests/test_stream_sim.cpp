// Tests for bench_suite/stream_sim: BabelStream on the simulator.

#include "bench_suite/stream_sim.hpp"

#include <gtest/gtest.h>

#include "core/executor.hpp"

namespace omv::bench {
namespace {

ompsim::TeamConfig team_cfg(std::size_t threads,
                            topo::ProcBind bind = topo::ProcBind::close) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = threads;
  cfg.bind = bind;
  return cfg;
}

// A one-worker executor: every protocol run executes inline, in order.
core::Executor& one_worker() {
  static core::Executor executor(1);
  return executor;
}

TEST(StreamKernels, NamesAndTraffic) {
  EXPECT_EQ(all_stream_kernels().size(), 5u);
  EXPECT_STREQ(stream_kernel_name(StreamKernel::triad), "triad");
  // add/triad move 3 streams, copy/mul/dot 2.
  EXPECT_GT(stream_bytes_per_elem(StreamKernel::add),
            stream_bytes_per_elem(StreamKernel::copy));
  EXPECT_DOUBLE_EQ(stream_bytes_per_elem(StreamKernel::triad),
                   stream_bytes_per_elem(StreamKernel::add));
}

TEST(SimStream, MoreThreadsNeverSlower) {
  // Fig. 2: execution time decreases (or saturates) with thread count.
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  double prev = 1e300;
  for (std::size_t t : {2u, 8u, 32u, 128u}) {
    SimStream st(s, team_cfg(t));
    ompsim::SimTeam team(s, team_cfg(t), 1);
    team.begin_run(1);
    const double kt = st.kernel_time_s(team, StreamKernel::triad);
    EXPECT_LE(kt, prev * 1.02) << t;
    prev = kt;
  }
}

TEST(SimStream, TriadSlowerThanCopy) {
  // 24 vs 16 bytes per element.
  sim::Simulator s(topo::Machine::vera(), sim::SimConfig::ideal());
  SimStream st(s, team_cfg(8));
  ompsim::SimTeam team(s, team_cfg(8), 1);
  team.begin_run(1);
  const double copy = st.kernel_time_s(team, StreamKernel::copy);
  const double triad = st.kernel_time_s(team, StreamKernel::triad);
  EXPECT_GT(triad, copy);
}

TEST(SimStream, DotAddsReductionCost) {
  sim::Simulator s(topo::Machine::vera(), sim::SimConfig::ideal());
  SimStream st(s, team_cfg(8));
  ompsim::SimTeam t1(s, team_cfg(8), 1);
  t1.begin_run(1);
  const double dot = st.kernel_time_s(t1, StreamKernel::dot);
  ompsim::SimTeam t2(s, team_cfg(8), 1);
  t2.begin_run(1);
  const double copy = st.kernel_time_s(t2, StreamKernel::copy);
  EXPECT_GT(dot, copy);  // same traffic + reduction tree
}

TEST(SimStream, PinningTightensNormalizedSpread) {
  // Fig. 4 third column: unpinned BabelStream shows a much wider
  // min/max spread than pinned.
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::dardel());
  ExperimentSpec spec;
  spec.runs = 5;
  spec.reps = 20;
  spec.seed = 17;

  SimStream pinned(s, team_cfg(128, topo::ProcBind::close));
  const auto mp = pinned.run_protocol(StreamKernel::triad, spec, one_worker());

  SimStream unpinned(s, team_cfg(128, topo::ProcBind::none));
  const auto mu =
      unpinned.run_protocol(StreamKernel::triad, spec, one_worker());

  const auto sp = mp.pooled_summary();
  const auto su = mu.pooled_summary();
  EXPECT_LT(sp.norm_max() - sp.norm_min(), su.norm_max() - su.norm_min());
}

TEST(SimStream, ProtocolDeterministic) {
  sim::Simulator s1(topo::Machine::vera(), sim::SimConfig::vera());
  sim::Simulator s2(topo::Machine::vera(), sim::SimConfig::vera());
  ExperimentSpec spec;
  spec.runs = 2;
  spec.reps = 5;
  spec.seed = 9;
  SimStream a(s1, team_cfg(8));
  SimStream b(s2, team_cfg(8));
  const auto ma = a.run_protocol(StreamKernel::mul, spec, one_worker());
  const auto mb = b.run_protocol(StreamKernel::mul, spec, one_worker());
  EXPECT_DOUBLE_EQ(ma.pooled_summary().mean, mb.pooled_summary().mean);
}

// Each run's whole state derives from its run seed, so the matrix is the
// same bytes at one and four workers.
TEST(SimStream, ShardedProtocolIsWidthInvariant) {
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::dardel());
  SimStream st(s, team_cfg(16, topo::ProcBind::none));
  core::Executor four_workers(4);
  ExperimentSpec spec;
  spec.runs = 4;
  spec.reps = 5;
  spec.seed = 23;
  for (const auto k : {StreamKernel::triad, StreamKernel::dot}) {
    const auto serial = st.run_protocol(k, spec, one_worker());
    const auto sharded = st.run_protocol(k, spec, four_workers);
    ASSERT_EQ(serial.runs(), 4u);
    EXPECT_EQ(sharded.rows(), serial.rows()) << stream_kernel_name(k);
  }
}

TEST(SimStream, BandwidthPlausible) {
  // 128 pinned Dardel threads on triad: total bandwidth should land in the
  // hundreds of GB/s (8 domains x ~48 GB/s).
  sim::Simulator s(topo::Machine::dardel(), sim::SimConfig::ideal());
  const std::size_t elems = std::size_t{1} << 25;
  SimStream st(s, team_cfg(128), elems);
  ompsim::SimTeam team(s, team_cfg(128), 1);
  team.begin_run(1);
  const double t = st.kernel_time_s(team, StreamKernel::triad);
  const double bytes = static_cast<double>(elems) *
                       stream_bytes_per_elem(StreamKernel::triad);
  const double gbps = bytes / t / 1e9;
  EXPECT_GT(gbps, 150.0);
  EXPECT_LT(gbps, 500.0);
}

}  // namespace
}  // namespace omv::bench
