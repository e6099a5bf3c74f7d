// Figure 6: higher variability of schedbench execution time due to
// frequency variation on Vera.
//
// Four panels: (a) 16 cores from one NUMA node, (b) its frequency trace,
// (c) 16 cores across two NUMA nodes, (d) its frequency trace. The
// frequency logger runs "on a separate core" — here, sampling the
// simulator's frequency model along the same simulated timeline.
//
// Paper shapes: the cross-NUMA placement shows higher variability (both
// run-to-run and across the 100 repetitions), and its frequency trace
// shows far more sub-fmax episodes (the "brown region").

#include "bench/freq_panel.hpp"
#include "bench/harness.hpp"
#include "bench_suite/schedbench_sim.hpp"

using namespace omv;

namespace {

using PanelResult = harness::FreqPanelResult;

PanelResult run_panel(cli::RunContext& ctx, const harness::Platform& p,
                      const std::string& label, sim::Simulator& s,
                      const std::string& places, std::size_t threads,
                      std::uint64_t seed) {
  SpecKey key;
  key.add("bench", "schedbench_freq_panel");
  key.add("platform", p.name + ":dippy");
  key.add("scenario_fp", p.fingerprint);
  return harness::run_freq_panel_cached(
      ctx, label, std::move(key), s, places, threads,
      harness::paper_spec(seed, 10, 20),
      [](sim::Simulator& sim, const ompsim::TeamConfig& cfg) {
        return bench::SimSchedBench(sim, cfg);
      },
      [](bench::SimSchedBench& sb, ompsim::SimTeam& team) {
        return sb.rep_time_us(team, ompsim::Schedule::static_, 1);
      });
}

void report_panel(cli::RunContext& ctx, const std::string& slug,
                  const char* label, const PanelResult& r) {
  ctx.print("%s\n", label);
  report::Table t({"run #", "mean (us)", "min (us)", "max (us)", "cv"});
  for (std::size_t i = 0; i < r.matrix.runs(); ++i) {
    const auto s = r.matrix.run_summary(i);
    t.add_row({std::to_string(i + 1), report::fmt_fixed(s.mean, 1),
               report::fmt_fixed(s.min, 1), report::fmt_fixed(s.max, 1),
               report::fmt_fixed(s.cv, 4)});
  }
  ctx.print("%s", t.render().c_str());
  ctx.record_table(slug, t);
  const auto& f = r.freq;
  ctx.print(
      "frequency trace: %zu samples, min %.2f / mean %.2f / max %.2f GHz, "
      "%.1f%% below 0.95*fmax, %zu dip episodes\n\n",
      f.samples, f.min, f.mean, f.max, f.below * 100.0, f.episodes);
  ctx.metric(slug + "_below_fmax_fraction", f.below);
  ctx.metric(slug + "_dip_episodes", static_cast<double>(f.episodes));
}

int run_fig6(cli::RunContext& ctx) {
  harness::header(
      ctx,
      "Figure 6 — schedbench variability from frequency variation (Vera)",
      "cross-NUMA placement shows higher execution-time variability and a "
      "frequency trace with many more sub-fmax episodes than the "
      "single-NUMA placement");

  // The active-DVFS session on the scenario platform (the paper measured
  // a dippy Vera session).
  const auto p = harness::freq_session_platform(ctx);
  const auto geo = harness::freq_panel_geometry(p);
  if (!geo.applicable) {
    ctx.print("%s\n", geo.reason.c_str());
    return 0;
  }
  sim::Simulator s(p.machine, p.config);

  const auto one_numa =
      run_panel(ctx, p, "one_numa", s, geo.one_places, geo.threads, 7001);
  const auto two_numa =
      run_panel(ctx, p, "two_numa", s, geo.two_places, geo.threads, 7002);

  report_panel(ctx, "one_numa",
               ("(a)+(b) " + std::to_string(geo.threads) +
                " cores from ONE NUMA node:")
                   .c_str(),
               one_numa);
  report_panel(ctx, "two_numa",
               ("(c)+(d) " + std::to_string(geo.threads) +
                " cores from TWO NUMA nodes:")
                   .c_str(),
               two_numa);

  ctx.verdict(two_numa.matrix.pooled_summary().cv >
                  one_numa.matrix.pooled_summary().cv,
              "cross-NUMA placement has higher execution-time CV");
  ctx.verdict(two_numa.freq.below > one_numa.freq.below,
              "cross-NUMA frequency trace shows a larger sub-fmax "
              "region (the paper's brown region)");
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "fig6",
    "Figure 6 — schedbench variability from frequency variation (Vera)",
    run_fig6};

}  // namespace
