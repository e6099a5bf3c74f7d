// Extension: EPCC taskbench subset on the simulated platforms (the paper's
// future work points beyond worksharing loops; LaGrone et al.'s task
// overhead micro-benchmarks are the canonical next step).
//
// Expected shapes: parallel task generation scales with the team while
// master task generation saturates at the single producer; both inherit
// the platform's variability mechanisms (pinning still matters).

#include "bench/harness.hpp"
#include "bench_suite/protocol.hpp"
#include "omp_model/tasking.hpp"

using namespace omv;

namespace {

/// Tasking needs no benchmark object — the team is the whole state.
struct NoBench {};

RunMatrix run_tasking(cli::RunContext& ctx, const harness::Platform& p,
                      const std::string& label, sim::Simulator& s,
                      const ompsim::TeamConfig& cfg, bool master,
                      std::uint64_t seed) {
  const auto spec = harness::paper_spec(seed, 8, 30);
  return ctx.protocol(
      label, spec,
      harness::cell_key("taskbench", p, cfg)
          .add("pattern", master ? "master" : "parallel"),
      [&] {
        return bench::run_protocol_sharded(
            s, cfg, spec, ctx.executor(),
            [](sim::Simulator&) { return NoBench{}; },
            [master](NoBench&, ompsim::SimTeam& team) {
              team.begin_rep();
              const double t0 = team.now();
              if (master) {
                ompsim::master_task_generation(team, 64 * team.size(),
                                               1e-6);
              } else {
                ompsim::parallel_task_generation(team, 64, 1e-6);
              }
              return (team.now() - t0) * 1e6;
            });
      });
}

int run_taskbench(cli::RunContext& ctx) {
  harness::header(
      ctx, "Extension — EPCC taskbench subset (simulated platforms)",
      "parallel task generation scales with the team; master task "
      "generation bottlenecks on the single producer; unpinned tasking "
      "inherits the Fig. 4 variability");

  const auto p = harness::primary(ctx);
  sim::Simulator s(p.machine, p.config);
  // Stage sizes derived from the machine (Dardel: 32 and 128 threads).
  const std::size_t t_big = harness::full_team(p.machine);
  const std::size_t t_small =
      std::min(std::max<std::size_t>(2, t_big / 4), t_big);

  report::Table t({"pattern", "threads", "mean rep (us)", "pooled CV"});
  double par128 = 0.0;
  double mas32 = 0.0;
  double mas128 = 0.0;
  for (int stage = 0; stage < 2; ++stage) {
    // Branch on the stage, not on thread-count equality: a degenerate
    // scenario machine can collapse t_small onto t_big, and both stages
    // must still assign their own accumulators.
    const std::size_t threads = stage == 0 ? t_small : t_big;
    const std::string ts = std::to_string(threads);
    const auto mp =
        run_tasking(ctx, p, "parallel/t" + ts, s,
                    harness::pinned_team(threads), false, 9301 + threads);
    const auto mm = run_tasking(ctx, p, "master/t" + ts, s,
                                harness::pinned_team(threads), true,
                                9401 + threads);
    t.add_row({"parallel generation", ts,
               report::fmt_fixed(mp.grand_mean(), 1),
               report::fmt_fixed(mp.pooled_summary().cv, 5)});
    t.add_row({"master generation", ts,
               report::fmt_fixed(mm.grand_mean(), 1),
               report::fmt_fixed(mm.pooled_summary().cv, 5)});
    if (stage == 0) {
      mas32 = mm.grand_mean();
    } else {
      par128 = mp.grand_mean();
      mas128 = mm.grand_mean();
    }
  }
  ctx.table("task_generation", t);
  // Per-task totals are fixed per thread for parallel generation, so the
  // rep time stays near-flat with team size; master generation's rep time
  // grows with total tasks (64*T) at a near-serial producer.
  ctx.verdict(mas128 > mas32 * 2.0,
              "master generation degrades with team size (producer "
              "bottleneck)");
  ctx.verdict(par128 < mas128,
              "parallel generation beats master generation at scale");

  // Pinning still matters for tasking.
  const std::string tb = std::to_string(t_big);
  const auto pin = run_tasking(ctx, p, "parallel/t" + tb + "/pinned", s,
                               harness::pinned_team(t_big), false, 9501);
  const auto unpin =
      run_tasking(ctx, p, "parallel/t" + tb + "/unpinned", s,
                  harness::unpinned_team(t_big), false, 9502);
  ctx.print("tasking, %s threads: pinned CV %.5f vs unpinned CV %.5f\n",
            tb.c_str(), pin.pooled_summary().cv,
            unpin.pooled_summary().cv);
  ctx.metric("pinned_cv", pin.pooled_summary().cv);
  ctx.metric("unpinned_cv", unpin.pooled_summary().cv);
  ctx.verdict(unpin.pooled_summary().cv > pin.pooled_summary().cv,
              "unpinned tasking inherits the Fig. 4 variability");
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "ext_taskbench", "Extension — EPCC taskbench subset (simulated "
    "platforms)",
    run_taskbench};

}  // namespace
