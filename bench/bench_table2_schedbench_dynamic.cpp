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

  struct Column {
    harness::Platform platform;
    std::size_t threads;
    std::uint64_t seed;
  };
  std::vector<Column> cols;
  if (harness::scenario_mode(ctx)) {
    // One platform, two columns: a small team and the full-node team,
    // sharing a seed so a run-scoped cap draw lines up across columns
    // (load-gated away at 4 threads, surfacing at full scale).
    const auto p = harness::platforms(ctx).front();
    cols.push_back({p, std::min<std::size_t>(4, p.machine.n_threads()),
                    1072});
    cols.push_back({p, harness::spare2_team(p.machine), 1072});
  } else {
    // Both Dardel columns share a seed so the run that draws the
    // run-scoped frequency cap is the same: at 4 threads the cap is
    // load-gated away (tight column), at 254 threads it surfaces as the
    // paper's run-9-style outlier.
    cols.push_back({harness::dardel(), 4, 1072});
    cols.push_back({harness::dardel(), 254, 1072});
    cols.push_back({harness::vera(), 4, 1009});
    cols.push_back({harness::vera(), 30, 1004});
    (void)harness::platforms(ctx);  // records the pair into the artifact
  }

  std::vector<RunMatrix> results;
  std::vector<std::string> headers{"run #"};
  for (auto& c : cols) {
    sim::Simulator s(c.platform.machine, c.platform.config);
    const auto team = harness::pinned_team(c.threads);
    bench::SimSchedBench sb(s, team, bench::EpccParams::schedbench(),
                            /*max_grabs_per_rep=*/10000);
    const auto spec = harness::paper_spec(c.seed);
    results.push_back(ctx.protocol(
        c.platform.name + "/t" + std::to_string(c.threads),
        spec,
        harness::cell_key("schedbench", c.platform, team)
            .add("schedule", "dynamic")
            .add("chunk", std::uint64_t{1}),
        [&] {
          return sb.run_protocol(ompsim::Schedule::dynamic, 1, spec,
                                 ctx.executor());
        }));
    headers.push_back(c.platform.name + " " +
                      std::to_string(c.threads) + " thr");
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

  // Scenario mode has one platform pair of columns; the paper default has
  // two platforms' pairs. Verdicts check every small/full column pair.
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
