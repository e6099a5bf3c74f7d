// Extension: schedbench across schedules and chunk sizes.
//
// Section 4.2 of the paper: "we execute schedbench with three different
// schedules, namely static, dynamic and guided and various different chunk
// sizes, and present the results for specific schedules with the chunk
// size equal to 1". This harness regenerates the full sweep the paper ran
// behind that sentence: mean repetition time and pooled CV per (schedule,
// chunk) on both platforms at a representative thread count.
//
// Expected shapes: dynamic_1 is the most expensive configuration (maximum
// grab traffic); overheads fall as chunks grow; static is flat across
// chunk sizes; guided sits between static and dynamic at chunk 1.

#include <cmath>
#include <vector>

#include "bench/harness.hpp"
#include "bench_suite/schedbench_sim.hpp"

using namespace omv;

namespace {

void run_platform(cli::RunContext& ctx, const harness::Platform& p,
                  const harness::Team& cell) {
  const std::size_t threads = cell.threads;
  sim::Simulator s(p.machine, p.config);
  ctx.print("-- %s, %zu threads --\n", p.name.c_str(), threads);
  report::Table t({"schedule", "chunk", "mean rep (us)", "pooled CV"});
  double static_1 = 0.0;
  double dynamic_1 = 0.0;
  double guided_1 = 0.0;
  double dynamic_128 = 0.0;
  for (auto kind : {ompsim::Schedule::static_, ompsim::Schedule::dynamic,
                    ompsim::Schedule::guided}) {
    for (std::size_t chunk : {1ul, 8ul, 128ul}) {
      const auto team = harness::pinned_team(threads);
      bench::SimSchedBench sb(s, team, bench::EpccParams::schedbench(),
                              10000);
      const auto spec = harness::paper_spec(cell.seed + chunk, 5, 10);
      const auto m = ctx.protocol(
          p.name + "/" + ompsim::schedule_name(kind) + "_" +
              std::to_string(chunk),
          spec,
          harness::cell_key("schedbench", p, team)
              .add("schedule", ompsim::schedule_name(kind))
              .add("chunk", chunk),
          [&] {
            return sb.run_protocol(kind, chunk, spec, ctx.executor());
          });
      const double mean = m.grand_mean();
      t.add_row({ompsim::schedule_name(kind), std::to_string(chunk),
                 report::fmt_fixed(mean, 1),
                 report::fmt_fixed(m.pooled_summary().cv, 5)});
      if (kind == ompsim::Schedule::static_ && chunk == 1) static_1 = mean;
      if (kind == ompsim::Schedule::dynamic && chunk == 1) dynamic_1 = mean;
      if (kind == ompsim::Schedule::guided && chunk == 1) guided_1 = mean;
      if (kind == ompsim::Schedule::dynamic && chunk == 128) {
        dynamic_128 = mean;
      }
    }
  }
  ctx.table(p.name + "_sweep", t);
  ctx.verdict(dynamic_1 > guided_1 && dynamic_1 > static_1,
              p.name + ": dynamic_1 is the most expensive configuration");
  // Guided's decaying chunks cost little per thread and rebalance noise,
  // so it tracks static within noise (sometimes beating it).
  ctx.verdict(std::abs(guided_1 - static_1) < 0.02 * static_1,
              p.name + ": guided_1 tracks static_1 within 2%");
  ctx.verdict(dynamic_128 < dynamic_1,
              p.name + ": larger chunks shrink dynamic overhead");
}

int run_chunk_sweep(cli::RunContext& ctx) {
  harness::header(
      ctx, "Extension — schedbench schedule x chunk sweep (paper §4.2)",
      "the paper ran static/dynamic/guided with various chunk sizes and "
      "reported chunk=1; this regenerates the full sweep");
  for (const auto& p : harness::platforms(ctx)) {
    run_platform(ctx, p,
                 harness::paper_cells<harness::Team>(
                     p, {128, 9101}, {30, 9201},
                     {harness::full_team(p.machine), 9101}));
  }
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "ext_chunk_sweep",
    "Extension — schedbench schedule x chunk sweep (paper §4.2)",
    run_chunk_sweep};

}  // namespace
