// Table 2: schedbench (dynamic_1) execution time per run.
//
// Reproduces the paper's table: 10 runs of dynamic-schedule chunk-1
// schedbench on Dardel (4 and 254 threads) and Vera (4 and 30 threads),
// reporting the mean repetition time (us) of each run. The paper's
// observations: values are tight at 4 threads, grow with thread count
// (chunk-grab contention), and the full-node column shows an occasional
// run-level outlier (run 9 on Dardel, ~10% slower).

#include <vector>

#include "bench/harness.hpp"
#include "bench_suite/schedbench_sim.hpp"

using namespace omv;

namespace {

int run_table2(cli::RunContext& ctx) {
  harness::header(
      ctx,
      "Table 2 — schedbench (dynamic_1) higher execution time (us)",
      "Dardel: ~124,000us @4thr, ~154,200us @254thr with run 9 at "
      "~168,800us; Vera: ~136,500us @4thr, ~164,700us @30thr — tight "
      "columns except one full-node outlier run");

  std::vector<RunMatrix> results;
  std::vector<std::string> headers{"run #"};
  for (const auto& p : harness::platforms(ctx)) {
    // Two columns per platform: a small team and the full-node team.
    // Except on Vera the pair shares a seed, so the run that draws the
    // run-scoped frequency cap is the same in both: at 4 threads the cap
    // is load-gated away (tight column), at full scale it surfaces as the
    // paper's run-9-style outlier.
    const auto columns = harness::paper_cells<std::vector<harness::Team>>(
        p, {{4, 1072}, {254, 1072}}, {{4, 1009}, {30, 1004}},
        {{std::min<std::size_t>(4, p.machine.n_threads()), 1072},
         {harness::spare2_team(p.machine), 1072}});
    for (const auto& c : columns) {
      sim::Simulator s(p.machine, p.config);
      const auto team = harness::pinned_team(c.threads);
      bench::SimSchedBench sb(s, team, bench::EpccParams::schedbench(),
                              /*max_grabs_per_rep=*/10000);
      const auto spec = harness::paper_spec(c.seed);
      results.push_back(ctx.protocol(
          p.name + "/t" + std::to_string(c.threads), spec,
          harness::cell_key("schedbench", p, team)
              .add("schedule", "dynamic")
              .add("chunk", std::uint64_t{1}),
          [&] {
            return sb.run_protocol(ompsim::Schedule::dynamic, 1, spec,
                                   ctx.executor());
          }));
      headers.push_back(p.name + " " + std::to_string(c.threads) + " thr");
    }
  }

  report::Table t(headers);
  const std::size_t runs = results[0].runs();
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<std::string> row{std::to_string(r + 1)};
    for (const auto& m : results) {
      row.push_back(report::fmt_fixed(m.run_mean(r), 2));
    }
    t.add_row(std::move(row));
  }
  ctx.table("per_run_means", t);

  report::Table stats({"column", "grand mean (us)", "run spread (max/min)",
                       "run-to-run CV"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    stats.add_row({headers[i + 1],
                   report::fmt_fixed(results[i].grand_mean(), 1),
                   report::fmt_fixed(results[i].run_mean_spread(), 4),
                   report::fmt_fixed(results[i].run_to_run_cv(), 5)});
  }
  ctx.table("column_stats", stats);

  // Verdicts check every platform's small/full column pair.
  bool grows = true;
  bool tight4 = true;
  bool outlier_somewhere = false;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    grows &= results[i].grand_mean() < results[i + 1].grand_mean();
    tight4 &= results[i].run_mean_spread() < 1.01;
    outlier_somewhere |= results[i + 1].run_mean_spread() > 1.03;
  }
  ctx.verdict(grows,
              "execution time grows with thread count under dynamic_1");
  ctx.verdict(tight4, "4-thread columns are tight (<1% run spread)");
  ctx.verdict(outlier_somewhere,
              "a full-node column shows a run-level outlier");
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "table2", "Table 2 — schedbench (dynamic_1) execution time per run",
    run_table2};

}  // namespace
