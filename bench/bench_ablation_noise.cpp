// Ablation bench: attributes each variability signature to the simulator
// mechanism that produces it, by toggling one mechanism at a time on the
// Fig. 4 workload (syncbench reduction, 128 Dardel threads).
//
// This backs DESIGN.md's marked design decisions: the unpinned heavy tail
// comes from oversubscription scheduling stalls, the pinned run-level
// outliers from the run-scoped frequency cap, the residual jitter from
// daemons/ticks, and the barrier algorithm choice moves the absolute sync
// cost but not the variability structure.

#include "bench/harness.hpp"
#include "bench_suite/syncbench_sim.hpp"
#include "core/characterize.hpp"

using namespace omv;

namespace {

struct Row {
  std::string name;
  double mean;
  double cv;
  double max_over_min;
  double run_spread;
  std::string signature;
};

Row run_case(cli::RunContext& ctx, const harness::Platform& p,
             const std::string& name, const sim::SimConfig& cfg,
             const ompsim::TeamConfig& team, std::uint64_t seed) {
  sim::Simulator s(p.machine, cfg);
  bench::SimSyncBench sb(s, team);
  const auto spec = harness::paper_spec(seed, 8, 40);
  // The config variants are one-knob toggles of the named case, so the
  // case name (on top of the scenario fingerprint of the base bundle) is
  // the honest fingerprint of `cfg`.
  const auto m = ctx.protocol(
      name, spec,
      harness::cell_key("syncbench", p, team)
          .add("construct", "reduction")
          .add("ablation_case", name),
      [&] {
        return sb.run_protocol(bench::SyncConstruct::reduction, spec,
                               ctx.executor());
      });
  const auto ps = m.pooled_summary();
  return {name,
          ps.mean,
          ps.cv,
          ps.min > 0.0 ? ps.max / ps.min : 0.0,
          m.run_mean_spread(),
          characterize(m).to_string()};
}

int run_ablation(cli::RunContext& ctx) {
  harness::header(
      ctx,
      "Ablation — which mechanism produces which variability signature",
      "(not a paper experiment; backs the design decisions in DESIGN.md)");

  std::vector<Row> rows;

  const auto p = harness::primary(ctx);
  const auto full = p.config;
  const std::size_t threads = harness::full_team(p.machine);
  const auto pinned = harness::pinned_team(threads);
  const auto unpinned = harness::unpinned_team(threads);

  rows.push_back(
      run_case(ctx, p, "pinned, full model", full, pinned, 9001));
  rows.push_back(
      run_case(ctx, p, "unpinned, full model", full, unpinned, 9001));

  {
    auto cfg = full;
    cfg.costs.oversub_stall_mean = 0.0;  // no scheduler stalls
    rows.push_back(run_case(ctx, p, "unpinned, no oversub stalls", cfg,
                            unpinned, 9001));
  }
  {
    auto cfg = full;
    cfg.freq.run_cap_prob = 0.0;  // no run-scoped frequency cap
    rows.push_back(
        run_case(ctx, p, "pinned, no run cap", cfg, pinned, 9001));
  }
  {
    auto cfg = full;
    cfg.noise = sim::NoiseConfig::quiet();  // no OS noise at all
    rows.push_back(
        run_case(ctx, p, "pinned, no OS noise", cfg, pinned, 9001));
  }
  {
    auto cfg = full;
    cfg.noise.degrade_prob = 0.0;  // no degraded runs
    rows.push_back(
        run_case(ctx, p, "pinned, no degraded runs", cfg, pinned, 9001));
  }
  {
    auto team = pinned;
    team.barrier_alg = ompsim::BarrierAlgorithm::centralized;
    rows.push_back(
        run_case(ctx, p, "pinned, centralized barrier", full, team, 9001));
  }

  report::Table t({"configuration", "mean (us)", "pooled CV", "max/min",
                   "run spread", "signature"});
  for (const auto& r : rows) {
    t.add_row({r.name, report::fmt_fixed(r.mean, 1),
               report::fmt_fixed(r.cv, 5), report::fmt_fixed(r.max_over_min, 1),
               report::fmt_fixed(r.run_spread, 4), r.signature});
  }
  ctx.table("ablation_matrix", t);

  ctx.verdict(rows[2].max_over_min < rows[1].max_over_min / 5.0,
              "removing oversubscription stalls collapses the unpinned "
              "heavy tail => stalls are the orders-of-magnitude "
              "mechanism");
  ctx.verdict(rows[4].cv <= rows[0].cv,
              "removing OS noise does not increase pinned jitter");
  ctx.verdict(rows[6].mean > rows[0].mean,
              "centralized barrier costs more than the tree at " +
                  std::to_string(threads) +
                  " threads (why runtimes use trees)");
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "ablation_noise",
    "Ablation — which simulator mechanism produces which variability "
    "signature",
    run_ablation};

}  // namespace
