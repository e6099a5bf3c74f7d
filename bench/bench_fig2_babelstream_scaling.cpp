// Figure 2: BabelStream execution time (ms) when increasing the number of
// HW threads on Dardel (2-254) and Vera (2-30).
//
// Paper shape: kernel execution time decreases as more threads are
// launched, on both platforms (bandwidth aggregates across cores and NUMA
// domains until saturation).

#include <vector>

#include "bench/harness.hpp"
#include "bench_suite/stream_sim.hpp"

using namespace omv;

namespace {

void run_platform(cli::RunContext& ctx, const harness::Platform& p,
                  const std::vector<std::size_t>& counts,
                  std::uint64_t seed) {
  sim::Simulator s(p.machine, p.config);
  ctx.print("-- %s (array 2^25 doubles) --\n", p.name.c_str());
  std::vector<std::string> names;
  for (auto k : bench::all_stream_kernels()) {
    names.push_back(std::string(bench::stream_kernel_name(k)) + "_ms");
  }
  report::Series series("threads", names);

  double first_triad = 0.0;
  double last_triad = 0.0;
  for (std::size_t t : counts) {
    std::vector<double> row;
    for (auto k : bench::all_stream_kernels()) {
      const auto team = harness::pinned_team(t);
      bench::SimStream st(s, team);
      const auto spec = harness::paper_spec(seed + t, 10, 50);
      const auto m = ctx.protocol(
          p.name + "/t" + std::to_string(t) + "/" +
              bench::stream_kernel_name(k),
          spec,
          harness::cell_key("babelstream", p, team)
              .add("kernel", bench::stream_kernel_name(k)),
          [&] {
            return st.run_protocol(k, spec, ctx.executor(), ctx.checkpoint());
          });
      row.push_back(m.grand_mean());
      if (k == bench::StreamKernel::triad) {
        if (t == counts.front()) first_triad = m.grand_mean();
        if (t == counts.back()) last_triad = m.grand_mean();
      }
    }
    series.add(static_cast<double>(t), std::move(row));
  }
  ctx.series(p.name, series, 3);
  ctx.verdict(
      last_triad < first_triad,
      p.name + ": execution time decreases with more threads");
}

int run_fig2(cli::RunContext& ctx) {
  harness::header(
      ctx, "Figure 2 — BabelStream execution time (ms) vs HW threads",
      "execution time reduces when launching more parallel threads, on "
      "both Dardel and Vera");
  const auto ps = harness::platforms(ctx);
  if (harness::scenario_mode(ctx)) {
    run_platform(ctx, ps[0], harness::thread_ladder(ps[0].machine), 3001);
  } else {
    run_platform(ctx, ps[0], {2, 4, 8, 16, 32, 64, 128, 254}, 3001);
    run_platform(ctx, ps[1], {2, 4, 8, 16, 24, 30}, 3002);
  }
  return 0;
}

[[maybe_unused]] const cli::Registration reg{
    "fig2", "Figure 2 — BabelStream execution time (ms) vs HW threads",
    run_fig2};

}  // namespace
