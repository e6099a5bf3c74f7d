// Figure 5: the effect of SMT on Dardel.
//
// ST configuration: one HW thread per physical core (the sibling is left
// idle for OS activities). MT configuration: both HW threads of half the
// cores. Same OpenMP thread count in both cases.
//
// Columns: schedbench at 128 threads, syncbench at 32 threads (per-run CV
// per construct), BabelStream at 128 threads.
//
// Paper shapes: MT shows much higher variability (within-run and
// run-to-run) for schedbench and syncbench (for/single/ordered/reduction
// worst); BabelStream does not benefit from SMT; at small thread counts
// ST does not outperform MT much for BabelStream.

#include <algorithm>
#include <string>

#include "bench/harness.hpp"
#include "bench_suite/schedbench_sim.hpp"
#include "bench_suite/stream_sim.hpp"
#include "bench_suite/syncbench_sim.hpp"

using namespace omv;

namespace {

// Teams are laid out over the *SMT-eligible* core pool (cores with >= 2
// HW threads) — the whole machine on the paper platforms, the P-cluster
// on a big.LITTLE part. ST: first siblings of the first `n` eligible
// cores. MT: both siblings of the first n/2. On symmetric machines the
// compressed places specs reproduce the historical strings ("{0}:n:1" /
// "{0}:k:1,{128}:k:1" on Dardel — second siblings start at n_cores under
// its Linux numbering) byte for byte.
ompsim::TeamConfig st_team(const topo::Machine& m,
                           const std::vector<std::size_t>& eligible,
                           std::size_t n) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = n;
  const std::vector<std::size_t> cores(eligible.begin(),
                                       eligible.begin() +
                                           static_cast<std::ptrdiff_t>(n));
  cfg.places_spec = harness::places_for_ids(harness::sibling_ids(m, cores, 0));
  cfg.bind = topo::ProcBind::close;
  return cfg;
}

ompsim::TeamConfig mt_team(const topo::Machine& m,
                           const std::vector<std::size_t>& eligible,
                           std::size_t n) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = n;
  const std::vector<std::size_t> cores(
      eligible.begin(),
      eligible.begin() + static_cast<std::ptrdiff_t>(n / 2));
  std::vector<std::size_t> ids = harness::sibling_ids(m, cores, 0);
  const std::vector<std::size_t> second = harness::sibling_ids(m, cores, 1);
  ids.insert(ids.end(), second.begin(), second.end());
  cfg.places_spec = harness::places_for_ids(ids);
  cfg.bind = topo::ProcBind::close;
  return cfg;
}

int run_fig5(cli::RunContext& ctx) {
  harness::header(
      ctx, "Figure 5 — higher variability due to SMT (Dardel)",
      "MT (both HW threads of each core) is much noisier than ST (one HW "
      "thread per core, sibling free for the OS) at equal thread counts; "
      "BabelStream does not benefit from SMT");

  const auto p = harness::primary(ctx);
  if (p.machine.max_smt_per_core() < 2) {
    // The ST/MT contrast needs hyperthreads; a no-SMT scenario has no MT
    // configuration to measure. (Per-core query: the retired floor-average
    // smt_per_core() reported "no SMT" for any machine whose SMT cores
    // were outnumbered by non-SMT ones.)
    ctx.print("scenario '%s' has no SMT (1 HW thread per core); the "
              "ST-vs-MT contrast does not apply.\n",
              p.name.c_str());
    return 0;
  }
  sim::Simulator s(p.machine, p.config);
  // Stage sizes derived from the SMT-eligible core pool (every core on
  // the paper platforms — Dardel: 128 / 32 / 8 — only the SMT-capable
  // cluster on mixed-SMT machines).
  const auto eligible = p.machine.cores_with_smt(2);
  const std::size_t n_elig = eligible.size();
  const std::size_t t_full = 2 * (n_elig / 2);
  if (t_full < 4 || n_elig < 2) {
    ctx.print("scenario '%s' is too small for the ST/MT split (%zu "
              "SMT-capable cores); the contrast does not apply.\n",
              p.name.c_str(), n_elig);
    return 0;
  }
  const std::size_t t_sync =
      std::min(2 * std::max<std::size_t>(2, n_elig / 8), t_full);
  const std::size_t t_small = 2 * std::max<std::size_t>(1, n_elig / 32);
  const std::string fsn = std::to_string(t_full);
  const std::string syn = std::to_string(t_sync);
  const std::string smn = std::to_string(t_small);

  // (a)/(d) schedbench, 128 threads.
  {
    const auto ms = harness::sched_cell(
        ctx, p, s, st_team(p.machine, eligible, t_full),
        ompsim::Schedule::dynamic, 1, "sched" + fsn + "/st",
        harness::paper_spec(6001, 10, 20));
    const auto mm = harness::sched_cell(
        ctx, p, s, mt_team(p.machine, eligible, t_full),
        ompsim::Schedule::dynamic, 1, "sched" + fsn + "/mt",
        harness::paper_spec(6002, 10, 20));
    report::Table t({"config", "grand mean (us)", "pooled CV",
                     "worst run CV"});
    auto worst_cv = [](const RunMatrix& m) {
      double w = 0.0;
      for (std::size_t r = 0; r < m.runs(); ++r) {
        w = std::max(w, m.run_cv(r));
      }
      return w;
    };
    t.add_row({"ST " + fsn + "thr", report::fmt_fixed(ms.grand_mean(), 1),
               report::fmt_fixed(ms.pooled_summary().cv, 5),
               report::fmt_fixed(worst_cv(ms), 5)});
    t.add_row({"MT " + fsn + "thr", report::fmt_fixed(mm.grand_mean(), 1),
               report::fmt_fixed(mm.pooled_summary().cv, 5),
               report::fmt_fixed(worst_cv(mm), 5)});
    ctx.print("(a)/(d) schedbench %s threads:\n%s\n", fsn.c_str(),
              t.render().c_str());
    ctx.record_table("sched" + fsn + "_st_vs_mt", t);
    ctx.verdict(mm.pooled_summary().cv > ms.pooled_summary().cv,
                "schedbench: MT repetitions far more variable than ST");
  }

  // (b)/(e) syncbench, 32 threads: CV per run for each construct.
  {
    report::Table t({"construct", "ST mean CV", "MT mean CV",
                     "ST worst CV", "MT worst CV"});
    bool mt_noisier_everywhere = true;
    for (auto c : bench::all_sync_constructs()) {
      const std::string name = bench::sync_construct_name(c);
      const auto ms = harness::sync_cell(
          ctx, p, s, st_team(p.machine, eligible, t_sync), c,
          "sync" + syn + "/st/" + name, harness::paper_spec(6003));
      const auto mm = harness::sync_cell(
          ctx, p, s, mt_team(p.machine, eligible, t_sync), c,
          "sync" + syn + "/mt/" + name, harness::paper_spec(6004));
      const auto cv_stats_s = stats::summarize(ms.run_cvs());
      const auto cv_stats_m = stats::summarize(mm.run_cvs());
      t.add_row({name, report::fmt_fixed(cv_stats_s.mean, 5),
                 report::fmt_fixed(cv_stats_m.mean, 5),
                 report::fmt_fixed(cv_stats_s.max, 5),
                 report::fmt_fixed(cv_stats_m.max, 5)});
      if (c == bench::SyncConstruct::for_ ||
          c == bench::SyncConstruct::single ||
          c == bench::SyncConstruct::ordered ||
          c == bench::SyncConstruct::reduction) {
        mt_noisier_everywhere &= cv_stats_m.mean > cv_stats_s.mean;
      }
    }
    ctx.print("(b)/(e) syncbench %s threads, per-run CV:\n%s\n",
              syn.c_str(), t.render().c_str());
    ctx.record_table("sync" + syn + "_cv_per_construct", t);
    ctx.verdict(mt_noisier_everywhere,
                "syncbench: MT CV higher for for/single/ordered/"
                "reduction");
  }

  // (c)/(f) BabelStream, 128 threads and the small-scale comparison.
  {
    const auto ms = harness::stream_cell(
        ctx, p, s, st_team(p.machine, eligible, t_full),
        bench::StreamKernel::triad, "stream" + fsn + "/st",
        harness::paper_spec(6005, 10, 50));
    const auto mm = harness::stream_cell(
        ctx, p, s, mt_team(p.machine, eligible, t_full),
        bench::StreamKernel::triad, "stream" + fsn + "/mt",
        harness::paper_spec(6006, 10, 50));
    ctx.print(
        "(c)/(f) BabelStream triad %s threads: ST %.3f ms (CV %.4f) vs "
        "MT %.3f ms (CV %.4f)\n",
        fsn.c_str(), ms.grand_mean(), ms.pooled_summary().cv,
        mm.grand_mean(), mm.pooled_summary().cv);
    ctx.metric("stream" + fsn + "_st_ms", ms.grand_mean());
    ctx.metric("stream" + fsn + "_mt_ms", mm.grand_mean());
    ctx.verdict(mm.grand_mean() >= ms.grand_mean() * 0.95,
                "BabelStream does not benefit from using SMT");

    const auto ms8 = harness::stream_cell(
        ctx, p, s, st_team(p.machine, eligible, t_small),
        bench::StreamKernel::triad, "stream" + smn + "/st",
        harness::paper_spec(6007, 10, 50));
    const auto mm8 = harness::stream_cell(
        ctx, p, s, mt_team(p.machine, eligible, t_small),
        bench::StreamKernel::triad, "stream" + smn + "/mt",
        harness::paper_spec(6008, 10, 50));
    ctx.print("BabelStream triad %s threads: ST %.3f ms vs MT %.3f ms\n",
              smn.c_str(), ms8.grand_mean(), mm8.grand_mean());
    ctx.verdict(mm8.grand_mean() / ms8.grand_mean() < 1.5,
                "at small scale ST does not outperform MT much");
  }
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "fig5", "Figure 5 — higher variability due to SMT (Dardel)", run_fig5};

}  // namespace
