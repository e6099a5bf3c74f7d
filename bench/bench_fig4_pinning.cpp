// Figure 4: the effect of thread pinning on Dardel.
//
// Three columns: schedbench at 16 threads, syncbench (reduction) at 128
// threads, BabelStream at 128 threads — each before pinning (OS placement,
// OMP_PROC_BIND unset) and after pinning (OMP_PLACES=threads,
// OMP_PROC_BIND=close).
//
// Paper shapes: pinning removes most run-to-run variability; unpinned
// syncbench spans >3 orders of magnitude between repetitions; unpinned
// BabelStream shows up to ~6x min/max spread across runs; schedbench keeps
// a mild run-level outlier even after pinning (run-scoped frequency cap).

#include "bench/harness.hpp"
#include "bench_suite/schedbench_sim.hpp"
#include "bench_suite/stream_sim.hpp"
#include "bench_suite/syncbench_sim.hpp"
#include "core/characterize.hpp"
#include "core/stat_tests.hpp"

using namespace omv;

namespace {

void per_run_table(cli::RunContext& ctx, const std::string& slug,
                   const char* title, const RunMatrix& m, int digits = 1) {
  ctx.print("%s\n", title);
  report::Table t({"run #", "mean", "min", "max", "cv"});
  for (std::size_t r = 0; r < m.runs(); ++r) {
    const auto s = m.run_summary(r);
    t.add_row({std::to_string(r + 1), report::fmt_fixed(s.mean, digits),
               report::fmt_fixed(s.min, digits),
               report::fmt_fixed(s.max, digits),
               report::fmt_fixed(s.cv, 4)});
  }
  ctx.table(slug, t);
}

int run_fig4(cli::RunContext& ctx) {
  harness::header(
      ctx, "Figure 4 — lower variability after thread-pinning (Dardel)",
      "pinning reduces run-to-run variability for schedbench@16thr, "
      "removes >3-orders-of-magnitude syncbench@128thr swings, and "
      "shrinks BabelStream@128thr min/max spread (up to 6x unpinned)");

  const auto p = harness::primary(ctx);
  sim::Simulator s(p.machine, p.config);
  // The paper's Dardel stage sizes, derived so any scenario scales them:
  // a small NUMA-local team (16 on Dardel) and an every-core team (128).
  const std::size_t t_sched = std::min(
      std::max<std::size_t>(2, p.machine.n_threads() / 16),
      p.machine.n_threads());
  const std::size_t t_full = harness::full_team(p.machine);
  const std::string ss = std::to_string(t_sched);
  const std::string fs = std::to_string(t_full);

  // (a)/(d) schedbench, 16 threads.
  {
    const auto unpinned = harness::unpinned_team(t_sched);
    const auto pinned = harness::pinned_team(t_sched);
    const auto mb = harness::sched_cell(
        ctx, p, s, unpinned, ompsim::Schedule::dynamic, 1,
        "sched" + ss + "/unpinned", harness::paper_spec(5001, 10, 20));
    const auto ma = harness::sched_cell(
        ctx, p, s, pinned, ompsim::Schedule::dynamic, 1,
        "sched" + ss + "/pinned", harness::paper_spec(5002, 10, 20));
    per_run_table(ctx, "sched" + ss + "_unpinned",
                  ("(a) schedbench " + ss + " thr, BEFORE pinning (us):").c_str(), mb);
    per_run_table(ctx, "sched" + ss + "_pinned",
                  ("(d) schedbench " + ss + " thr, AFTER pinning (us):").c_str(), ma);
    ctx.verdict(ma.run_to_run_cv() <= mb.run_to_run_cv(),
                "schedbench: pinning reduces run-to-run variation");
  }

  // (b)/(e) syncbench reduction, 128 threads.
  {
    const auto unpinned = harness::unpinned_team(t_full);
    const auto pinned = harness::pinned_team(t_full);
    const auto mb = harness::sync_cell(
        ctx, p, s, unpinned, bench::SyncConstruct::reduction,
        "sync" + fs + "/unpinned", harness::paper_spec(5003));
    const auto ma = harness::sync_cell(
        ctx, p, s, pinned, bench::SyncConstruct::reduction,
        "sync" + fs + "/pinned", harness::paper_spec(5004));
    per_run_table(ctx, "sync" + fs + "_unpinned",
                  ("(b) syncbench reduction " + fs +
                   " thr, BEFORE pinning (us):").c_str(),
                  mb);
    per_run_table(ctx, "sync" + fs + "_pinned",
                  ("(e) syncbench reduction " + fs +
                   " thr, AFTER pinning (us):").c_str(),
                  ma);
    const auto sb = mb.pooled_summary();
    const auto sa = ma.pooled_summary();
    ctx.print("unpinned rep-time range: %.1f .. %.1f us (%.0fx)\n",
              sb.min, sb.max, sb.max / sb.min);
    ctx.print("pinned rep-time range:   %.1f .. %.1f us (%.1fx)\n\n",
              sa.min, sa.max, sa.max / sa.min);
    ctx.metric("sync" + fs + "_unpinned_max_over_min", sb.max / sb.min);
    ctx.metric("sync" + fs + "_pinned_max_over_min", sa.max / sa.min);
    ctx.verdict(sb.max / sb.min > 100.0,
                "unpinned syncbench spans orders of magnitude");
    ctx.verdict(sa.max / sa.min < 2.0,
                "pinned syncbench variability nearly eliminated");
    const auto bf = stats::brown_forsythe(ma.flatten(), mb.flatten());
    ctx.verdict(bf.significant,
                "variance reduction statistically significant "
                "(Brown-Forsythe p=" +
                    report::fmt_fixed(bf.p_value, 4) + ")");
    ctx.print("unpinned signature: %s\n\n",
              characterize(mb).to_string().c_str());
  }

  // (c)/(f) BabelStream, 128 threads: normalized min/max per kernel.
  {
    report::Table t({"kernel", "unpinned nmin", "unpinned nmax",
                     "pinned nmin", "pinned nmax"});
    bool all_tighter = true;
    double worst_unpinned_ratio = 0.0;
    const auto unpinned = harness::unpinned_team(t_full);
    const auto pinned = harness::pinned_team(t_full);
    for (auto k : bench::all_stream_kernels()) {
      const std::string kernel = bench::stream_kernel_name(k);
      const auto mb = harness::stream_cell(
          ctx, p, s, unpinned, k, "stream" + fs + "/unpinned/" + kernel,
          harness::paper_spec(5005, 10, 50));
      const auto ma = harness::stream_cell(
          ctx, p, s, pinned, k, "stream" + fs + "/pinned/" + kernel,
          harness::paper_spec(5006, 10, 50));
      double ub_min = 1.0;
      double ub_max = 0.0;
      double pb_min = 1.0;
      double pb_max = 0.0;
      for (std::size_t r = 0; r < mb.runs(); ++r) {
        ub_min = std::min(ub_min, mb.run_norm_min(r));
        ub_max = std::max(ub_max, mb.run_norm_max(r));
        pb_min = std::min(pb_min, ma.run_norm_min(r));
        pb_max = std::max(pb_max, ma.run_norm_max(r));
      }
      worst_unpinned_ratio = std::max(worst_unpinned_ratio, ub_max / ub_min);
      all_tighter &= (pb_max - pb_min) <= (ub_max - ub_min);
      t.add_row({kernel, report::fmt_fixed(ub_min, 3),
                 report::fmt_fixed(ub_max, 3), report::fmt_fixed(pb_min, 3),
                 report::fmt_fixed(pb_max, 3)});
    }
    ctx.print("(c)/(f) BabelStream %s thr, normalized min/max:\n%s\n",
              fs.c_str(), t.render().c_str());
    ctx.record_table("stream" + fs + "_norm_minmax", t);
    ctx.print("worst unpinned max/min ratio: %.1fx\n", worst_unpinned_ratio);
    ctx.metric("stream" + fs + "_worst_unpinned_ratio", worst_unpinned_ratio);
    ctx.verdict(all_tighter,
                "BabelStream: pinned min/max spread tighter for every "
                "kernel");
  }
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "fig4", "Figure 4 — lower variability after thread-pinning (Dardel)",
    run_fig4};

}  // namespace
