// Figure 3: scalability of performance variability — normalized min/max
// execution time (per run, over 10 runs) when increasing the number of HW
// threads, for schedbench, syncbench and BabelStream on both platforms.
//
// Paper shapes: higher thread counts add to variability for syncbench and
// BabelStream, especially >=128 HW threads on Dardel and >=30 on Vera;
// schedbench is the least affected (dynamic scheduling self-balances).

#include <algorithm>
#include <vector>

#include "bench/harness.hpp"
#include "bench_suite/schedbench_sim.hpp"
#include "bench_suite/stream_sim.hpp"
#include "bench_suite/syncbench_sim.hpp"

using namespace omv;

namespace {

struct SpreadRow {
  double worst_norm_max = 0.0;  // max over runs of (max/mean)
  double worst_norm_min = 1.0;  // min over runs of (min/mean)
};

SpreadRow spread(const RunMatrix& m) {
  SpreadRow r;
  for (std::size_t i = 0; i < m.runs(); ++i) {
    r.worst_norm_max = std::max(r.worst_norm_max, m.run_norm_max(i));
    r.worst_norm_min = std::min(r.worst_norm_min, m.run_norm_min(i));
  }
  return r;
}

void run_platform(cli::RunContext& ctx, const harness::Platform& p,
                  const harness::Ladder& ladder) {
  const auto& counts = ladder.threads;
  sim::Simulator s(p.machine, p.config);
  ctx.print("-- %s --\n", p.name.c_str());
  report::Series series(
      "threads",
      {"sched_nmin", "sched_nmax", "sync_nmin", "sync_nmax",
       "stream_nmin", "stream_nmax"});

  double sync_spread_low = 0.0;
  double sync_spread_sum = 0.0;
  double sched_spread_sum = 0.0;
  double sync_spread_high = 0.0;
  for (std::size_t t : counts) {
    const auto team = harness::pinned_team(t);
    const std::string cell = p.name + "/t" + std::to_string(t) + "/";

    const auto m_sched = harness::sched_cell(
        ctx, p, s, team, ompsim::Schedule::dynamic, 1, cell + "schedbench",
        harness::paper_spec(ladder.seed + t, 10, 30));
    const auto m_sync = harness::sync_cell(
        ctx, p, s, team, bench::SyncConstruct::reduction, cell + "syncbench",
        harness::paper_spec(ladder.seed + t));
    const auto m_stream = harness::stream_cell(
        ctx, p, s, team, bench::StreamKernel::triad, cell + "stream",
        harness::paper_spec(ladder.seed + t, 10, 50));

    const auto a = spread(m_sched);
    const auto b = spread(m_sync);
    const auto c = spread(m_stream);
    series.add(static_cast<double>(t),
               {a.worst_norm_min, a.worst_norm_max, b.worst_norm_min,
                b.worst_norm_max, c.worst_norm_min, c.worst_norm_max});

    const double sync_sp = b.worst_norm_max - b.worst_norm_min;
    sync_spread_sum += sync_sp;
    sched_spread_sum += a.worst_norm_max - a.worst_norm_min;
    if (t == counts.front()) sync_spread_low = sync_sp;
    if (t == counts.back()) sync_spread_high = sync_sp;
  }
  ctx.series(p.name, series, 4);
  ctx.verdict(sync_spread_high > sync_spread_low,
              p.name + ": syncbench variability grows with thread count");
  ctx.verdict(sched_spread_sum < sync_spread_sum,
              p.name + ": schedbench is the least affected benchmark "
                       "(mean spread across counts)");
}

int run_fig3(cli::RunContext& ctx) {
  harness::header(
      ctx,
      "Figure 3 — scalability of performance variability (normalized "
      "min/max)",
      "variability grows with thread count for syncbench and BabelStream "
      "(>=128 HW threads on Dardel, >=30 on Vera); schedbench is least "
      "affected");
  for (const auto& p : harness::platforms(ctx)) {
    run_platform(ctx, p,
                 harness::paper_cells<harness::Ladder>(
                     p, {{4, 16, 64, 128, 254}, 4001},
                     {{2, 8, 16, 24, 30}, 4064},
                     {harness::thread_ladder(p.machine), 4001}));
  }
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "fig3",
    "Figure 3 — scalability of performance variability (normalized "
    "min/max)",
    run_fig3};

}  // namespace
