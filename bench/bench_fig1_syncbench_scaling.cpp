// Figure 1: syncbench (reduction) execution time when increasing the
// number of HW threads on Dardel (4-254) and Vera (2-30).
//
// Paper shapes: time per construct increases with thread count; a sharp
// jump when the second socket engages (>64 physical cores on Dardel via
// quad-NUMA spillover, >16 cores on Vera) and when SMT siblings engage on
// Dardel (>128 threads); reduction is the most expensive synchronization
// construct.

#include <vector>

#include "bench/harness.hpp"
#include "bench_suite/syncbench_sim.hpp"

using namespace omv;

namespace {

void run_platform(cli::RunContext& ctx, const harness::Platform& p,
                  const harness::Ladder& ladder) {
  const auto& counts = ladder.threads;
  sim::Simulator s(p.machine, p.config);
  ctx.print("-- %s --\n", p.name.c_str());
  report::Series series("threads", {"reduction_us", "barrier_us"});
  double first = 0.0;
  double last = 0.0;
  for (std::size_t t : counts) {
    const auto team = harness::pinned_team(t);
    const bench::SimSyncBench sb(s, team);
    const auto spec = harness::paper_spec(ladder.seed + t);
    const std::string cell = p.name + "/t" + std::to_string(t) + "/";
    const auto red =
        harness::sync_cell(ctx, p, s, team, bench::SyncConstruct::reduction,
                           cell + "reduction", spec);
    const auto bar =
        harness::sync_cell(ctx, p, s, team, bench::SyncConstruct::barrier,
                           cell + "barrier", spec);
    const double red_per =
        red.grand_mean() /
        static_cast<double>(sb.innerreps(bench::SyncConstruct::reduction));
    const double bar_per =
        bar.grand_mean() /
        static_cast<double>(sb.innerreps(bench::SyncConstruct::barrier));
    series.add(static_cast<double>(t), {red_per, bar_per});
    if (t == counts.front()) first = red_per;
    if (t == counts.back()) last = red_per;
  }
  ctx.series(p.name, series, 3);
  ctx.verdict(last > first,
              p.name + ": reduction time grows with thread count");
}

int run_fig1(cli::RunContext& ctx) {
  harness::header(
      ctx, "Figure 1 — syncbench execution time vs HW threads",
      "time increases with threads; sharp increase crossing the second "
      "socket and engaging SMT (Dardel >128); reduction is the most "
      "time-consuming synchronization micro-benchmark");

  const auto ps = harness::platforms(ctx);
  for (const auto& p : ps) {
    run_platform(ctx, p,
                 harness::paper_cells<harness::Ladder>(
                     p, {{4, 8, 16, 32, 64, 96, 128, 160, 192, 254}, 2001},
                     {{2, 4, 8, 12, 16, 20, 24, 28, 30}, 2002},
                     {harness::thread_ladder(p.machine), 2001}));
  }

  // Reduction vs the other constructs at full scale (Dardel by default).
  const auto& p = ps[0];
  sim::Simulator s(p.machine, p.config);
  bench::SimSyncBench sb(s,
                         harness::pinned_team(harness::full_team(p.machine)));
  report::Table t({"construct", "ideal instance (us)"});
  double reduction_cost = 0.0;
  double worst_other = 0.0;
  for (auto c : bench::all_sync_constructs()) {
    const double us = sb.ideal_instance_us(c);
    t.add_row({bench::sync_construct_name(c), report::fmt_fixed(us, 3)});
    if (c == bench::SyncConstruct::reduction) {
      reduction_cost = us;
    } else if (c != bench::SyncConstruct::critical &&
               c != bench::SyncConstruct::lock &&
               c != bench::SyncConstruct::ordered) {
      worst_other = std::max(worst_other, us);
    }
  }
  ctx.table("construct_cost_dardel128", t);
  ctx.verdict(reduction_cost > worst_other,
              "reduction is the most expensive team-wide construct");
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "fig1", "Figure 1 — syncbench execution time vs HW threads", run_fig1};

}  // namespace
