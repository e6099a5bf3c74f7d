// Figure 7: higher execution time in the syncbench (reduction)
// micro-benchmark due to frequency variation on Vera — the syncbench
// mirror of Figure 6.
//
// Paper shapes: the cross-NUMA placement exhibits more variation both
// run-to-run and within the 100 repetitions of a single run, matching the
// grey sub-fmax regions of its frequency trace.

#include "bench/freq_panel.hpp"
#include "bench/harness.hpp"
#include "bench_suite/syncbench_sim.hpp"

using namespace omv;

namespace {

using PanelResult = harness::FreqPanelResult;

PanelResult run_panel(cli::RunContext& ctx, const harness::Platform& p,
                      const std::string& label, sim::Simulator& s,
                      const std::string& places, std::size_t threads,
                      std::uint64_t seed) {
  SpecKey key;
  key.add("bench", "syncbench_freq_panel");
  key.add("platform", p.name + ":dippy");
  key.add("scenario_fp", p.fingerprint);
  key.add("construct", "reduction");
  return harness::run_freq_panel_cached(
      ctx, label, std::move(key), s, places, threads,
      harness::paper_spec(seed),
      [](sim::Simulator& sim, const ompsim::TeamConfig& cfg) {
        return bench::SimSyncBench(sim, cfg);
      },
      [](bench::SimSyncBench& sb, ompsim::SimTeam& team) {
        return sb.rep_time_us(team, bench::SyncConstruct::reduction);
      });
}

int run_fig7(cli::RunContext& ctx) {
  harness::header(
      ctx,
      "Figure 7 — syncbench (reduction) and frequency variation (Vera)",
      "16 cores across two NUMA nodes show more run-to-run and "
      "within-run variation than 16 cores of one node, coinciding with "
      "sub-fmax frequency episodes");

  const auto p = harness::freq_session_platform(ctx);
  const auto geo = harness::freq_panel_geometry(p);
  if (!geo.applicable) {
    ctx.print("%s\n", geo.reason.c_str());
    return 0;
  }
  sim::Simulator s(p.machine, p.config);

  const auto one =
      run_panel(ctx, p, "one_numa", s, geo.one_places, geo.threads, 8001);
  const auto two =
      run_panel(ctx, p, "two_numa", s, geo.two_places, geo.threads, 8002);

  report::Table t({"placement", "grand mean (us)", "pooled CV",
                   "run-to-run CV", "% samples < 0.95 fmax",
                   "dip episodes"});
  const auto add = [&](const char* name, const PanelResult& r) {
    t.add_row({name, report::fmt_fixed(r.matrix.grand_mean(), 2),
               report::fmt_fixed(r.matrix.pooled_summary().cv, 5),
               report::fmt_fixed(r.matrix.run_to_run_cv(), 5),
               report::fmt_pct(r.freq.below, 2),
               std::to_string(r.freq.episodes)});
  };
  const std::string one_label =
      "one NUMA node (cores 0-" + std::to_string(geo.threads - 1) + ")";
  const std::string two_label =
      "two NUMA nodes (" + std::to_string(geo.threads / 2) + "+" +
      std::to_string(geo.threads / 2) + ")";
  add(one_label.c_str(), one);
  add(two_label.c_str(), two);
  ctx.table("placement_comparison", t);

  ctx.verdict(two.matrix.grand_mean() > one.matrix.grand_mean(),
              "cross-NUMA reduction is slower (socket-step barrier + "
              "frequency dips)");
  ctx.verdict(two.matrix.pooled_summary().cv >
                  one.matrix.pooled_summary().cv,
              "cross-NUMA reduction shows more variation");
  ctx.verdict(two.freq.below > one.freq.below,
              "frequency trace confirms more dips cross-NUMA");
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "fig7", "Figure 7 — syncbench (reduction) and frequency variation (Vera)",
    run_fig7};

}  // namespace
