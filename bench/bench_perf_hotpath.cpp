// perf_hotpath — tracked perf-regression harness for the simulator's query
// kernels.
//
// Every figure/table cell funnels through Simulator::exec, whose inner loop
// is NoiseModel::preemption_delay + FreqModel::mean_factor /
// elapsed_for_work. This harness materializes event/episode streams at
// three densities, then self-times each kernel twice over the same frozen
// stream and query sequence:
//
//   * the indexed implementation (sorted-merge horizon + prefix-sum
//     interval queries — the production path), and
//   * the retained brute-force reference (sim/reference.hpp), which is the
//     pre-index O(events) scan — the baseline every BENCH_hotpath.json
//     records its speedup against.
//
// Results go to stdout, to the JSON artifact (wall-clock metrics — like
// micro_core this harness is outside the campaign's byte-stability
// guarantee), and to BENCH_hotpath.json (override the path with
// OMNIVAR_HOTPATH_OUT), the repo's accumulating perf trajectory.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <vector>

#include "bench/harness.hpp"
#include "cli/hotpath_report.hpp"
#include "sim/reference.hpp"

using namespace omv;

namespace {

/// Volatile sink defeating dead-code elimination of the measured calls.
volatile double g_sink = 0.0;

/// ns/call of `fn`, batch-grown until `min_seconds` of wall time accrue.
double time_ns_per_call(const std::function<double()>& fn,
                        double min_seconds) {
  using clock = std::chrono::steady_clock;
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < batch; ++i) g_sink = g_sink + fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= min_seconds) {
      return s * 1e9 / static_cast<double>(batch);
    }
    batch *= 2;
  }
}

/// Best (minimum) ns/call over `reps` independent timing repetitions.
/// Interference from the host — interrupts, other processes — only ever
/// adds time, so the minimum is the robust estimator of true kernel cost;
/// medians still wander by ~10% on a single-CPU box, enough to flip the
/// near-1.0 low-density speedup cells run to run.
double best_ns(const std::function<double()>& fn, double min_seconds,
               std::size_t reps) {
  double best = time_ns_per_call(fn, min_seconds);
  for (std::size_t r = 1; r < reps; ++r) {
    best = std::min(best, time_ns_per_call(fn, min_seconds));
  }
  return best;
}

struct PairNs {
  double opt;
  double base;
};

/// Interleaved best-of-reps for an optimized/baseline pair. Host
/// throughput also drifts on a scale of seconds, so timing all of `opt`'s
/// reps before any of `base`'s lets that drift masquerade as a speedup
/// change; alternating every rep makes both minima come from the same
/// quietest stretch of the run.
PairNs best_pair_ns(const std::function<double()>& opt,
                    const std::function<double()>& base, double min_seconds,
                    std::size_t reps) {
  PairNs best{time_ns_per_call(opt, min_seconds),
              time_ns_per_call(base, min_seconds)};
  for (std::size_t r = 1; r < reps; ++r) {
    best.opt = std::min(best.opt, time_ns_per_call(opt, min_seconds));
    best.base = std::min(best.base, time_ns_per_call(base, min_seconds));
  }
  return best;
}

struct Density {
  const char* name;
  double kworker_rate;   ///< noise events per second per HW thread.
  double episode_rate;   ///< frequency dips per second per NUMA domain.
  double episode_mean;   ///< mean dip duration — scaled down with rate so
                         ///< concurrent-dip counts stay realistic.
};

/// Deterministic query-window mix: start times across the stream, window
/// lengths from 10 us to 0.3 s, so both the scan-window and the prefix-sum
/// query paths are exercised.
struct Windows {
  std::vector<double> t0;
  std::vector<double> t1;
  std::vector<std::size_t> where;  ///< HW thread / core, cycling.
  std::size_t next = 0;

  Windows(double horizon, std::size_t n_places, std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < 256; ++i) {
      const double a = rng.uniform(0.0, 0.7 * horizon);
      t0.push_back(a);
      t1.push_back(a + rng.uniform(1e-5, 0.3));
      where.push_back(rng.next_below(n_places));
    }
  }

  /// Latest window end — the stream must be materialized past it before
  /// the reference queries run (they throw on under-materialized reads).
  [[nodiscard]] double max_end() const {
    return *std::max_element(t1.begin(), t1.end());
  }

  std::size_t step() {
    next = (next + 1) % t0.size();
    return next;
  }
};

int run_perf_hotpath(cli::RunContext& ctx) {
  harness::header(
      ctx,
      "perf_hotpath — simulator query-kernel timings (ns/op, wall clock)",
      "(not a paper experiment; tracks the hot-path perf trajectory — "
      "indexed queries vs the retained brute-force baseline)");
  // Self-timed wall-clock kernels, no protocol() cells: nothing to declare
  // on an enumeration pass, and the timing loops must not burn real time.
  if (ctx.enumerating()) return 0;

  const bool quick = [] {
    const char* q = std::getenv("OMNIVAR_QUICK");
    return q && q[0] == '1';
  }();
  const double budget = quick ? 0.002 : 0.02;
  const std::size_t reps = quick ? 3 : 7;
  const double horizon = quick ? 0.5 : 2.0;

  // The paper's DVFS-active platform by default (Vera); the selected
  // scenario (with its active-DVFS session freq profile) otherwise.
  const auto platform = ctx.scenario()
                            ? harness::freq_session_platform(ctx)
                            : harness::vera();
  if (!ctx.scenario()) ctx.note_platform(platform.name, platform.fingerprint);
  const auto& machine = platform.machine;
  const std::vector<Density> densities = {
      {"low", 2.0, 0.05, 0.6},
      {"mid", 50.0, 20.0, 0.05},
      {"high", 10000.0, 2000.0, 0.002},
  };

  cli::HotpathReport report;
  report.quick = quick;
  report.sim_machine = machine.name();
  report.noise_scan_cutover = sim::NoiseModel::kScanCutover;
  report.freq_scan_cutover = sim::FreqModel::kScanCutover;
  report::Table table(
      {"kernel", "density", "events", "optimized ns/op", "baseline ns/op",
       "speedup"});
  bool all_measured = true;

  const auto record = [&](const char* kernel, const char* density,
                          std::size_t events, double opt_ns, double base_ns) {
    report.kernels.push_back({kernel, density, events, opt_ns, base_ns});
    table.add_row({kernel, density, std::to_string(events),
                   report::fmt_fixed(opt_ns, 1),
                   base_ns > 0.0 ? report::fmt_fixed(base_ns, 1) : "-",
                   base_ns > 0.0 ? report::fmt_fixed(base_ns / opt_ns, 1)
                                 : "-"});
    all_measured &= opt_ns > 0.0;
    if (report.kernels.back().regression()) {
      ctx.print("[PERF-REGRESSION] %s/%s speedup=%.3f (vs reference_scan)\n",
                kernel, density, base_ns / opt_ns);
    }
    const std::string stem =
        std::string("ns_per_op/") + kernel + "/" + density;
    ctx.metric(stem + "/indexed", opt_ns);
    if (base_ns > 0.0) ctx.metric(stem + "/baseline", base_ns);
  };

  for (const auto& d : densities) {
    // --- NoiseModel::preemption_delay --------------------------------
    sim::NoiseConfig ncfg = platform.config.noise;
    ncfg.kworker_rate_per_cpu = d.kworker_rate;
    sim::NoiseModel noise(machine, ncfg);
    noise.begin_run(42, machine.primary_threads());
    Windows nw(horizon, machine.n_threads(), 7);
    // Freeze the stream past every query window (the short quick-mode
    // horizon used to leave the last windows past the materialized edge,
    // which the reference queries silently tolerated — no longer).
    noise.materialize_to(std::max(horizon, nw.max_end()));
    std::size_t n_events = 0;
    for (std::size_t h = 0; h < noise.n_event_streams(); ++h) {
      n_events += noise.event_times(h).size();
    }

    const auto [noise_opt, noise_base] = best_pair_ns(
        [&] {
          const std::size_t k = nw.step();
          return noise.preemption_delay(nw.where[k], nw.t0[k], nw.t1[k]);
        },
        [&] {
          const std::size_t k = nw.step();
          return sim::reference::preemption_delay(noise, machine, nw.where[k],
                                                  nw.t0[k], nw.t1[k]);
        },
        budget, reps);
    record("preemption_delay", d.name, n_events, noise_opt, noise_base);

    // --- FreqModel::mean_factor / elapsed_for_work -------------------
    sim::FreqConfig fcfg = platform.freq_session;
    fcfg.episode_rate = d.episode_rate;
    fcfg.episode_mean = d.episode_mean;
    sim::FreqModel freq(machine, fcfg);
    freq.begin_run(42);
    Windows fw(horizon, machine.n_cores(), 11);
    freq.materialize_to(std::max(horizon, fw.max_end()));
    std::size_t n_eps = 0;
    for (std::size_t dom = 0; dom < machine.n_numa(); ++dom) {
      n_eps += freq.episode_starts(dom).size();
    }

    const auto [mf_opt, mf_base] = best_pair_ns(
        [&] {
          const std::size_t k = fw.step();
          return freq.mean_factor(fw.where[k], fw.t0[k], fw.t1[k]);
        },
        [&] {
          const std::size_t k = fw.step();
          return sim::reference::mean_factor(freq, fw.where[k], fw.t0[k],
                                             fw.t1[k]);
        },
        budget, reps);
    record("mean_factor", d.name, n_eps, mf_opt, mf_base);

    // elapsed_for_work: work sized so every fixed-point window stays
    // inside the materialized horizon (factors are clamped >= 0.1).
    Windows ww(horizon * 0.5, machine.n_cores(), 13);
    const auto [ew_opt, ew_base] = best_pair_ns(
        [&] {
          const std::size_t k = ww.step();
          return freq.elapsed_for_work(ww.where[k], ww.t0[k], 1e-3);
        },
        [&] {
          const std::size_t k = ww.step();
          return sim::reference::elapsed_for_work(freq, ww.where[k],
                                                  ww.t0[k], 1e-3);
        },
        budget, reps);
    record("elapsed_for_work", d.name, n_eps, ew_opt, ew_base);
  }

  // --- Full SimTeam barrier phase (absolute, no scan baseline) --------
  {
    sim::Simulator simulator(machine, platform.config);
    const std::size_t t_barrier =
        std::min<std::size_t>(16, harness::full_team(machine));
    ompsim::SimTeam team(simulator, harness::pinned_team(t_barrier), 1);
    team.begin_run(1);
    const double barrier_ns = best_ns(
        [&] {
          team.compute(1e-5);
          team.barrier();
          return team.now();
        },
        budget, reps);
    record("team_barrier_phase",
           (machine.name() + std::to_string(t_barrier)).c_str(), 0,
           barrier_ns, 0.0);
  }

  ctx.table("hotpath", table);

  // Trajectory destination: explicit override first; inside a campaign the
  // file belongs in the campaign directory with the other artifacts (a full
  // `omnivar --out DIR` run must not clobber the committed trajectory
  // point); only a run without --out writes the CWD default — and a
  // scenario run gets a scenario-suffixed default, because its numbers are
  // calibrated to a different machine and must never overwrite the
  // committed default-platform trajectory.
  const char* out_env = std::getenv("OMNIVAR_HOTPATH_OUT");
  const std::string default_name =
      ctx.scenario() ? "BENCH_hotpath." + ctx.scenario()->name + ".json"
                     : std::string("BENCH_hotpath.json");
  const std::string out_path =
      out_env != nullptr
          ? std::string(out_env)
          : (ctx.caching() ? ctx.out_dir() + "/" + default_name
                           : default_name);
  const bool written = cli::write_hotpath_report(report, out_path);
  ctx.print("\nperf trajectory: %s %s\n", out_path.c_str(),
            written ? "written" : "WRITE FAILED");
  ctx.verdict(all_measured && written,
              "all hot-path kernels measured; " + out_path + " written");
  return written ? 0 : 1;
}

[[maybe_unused]] const cli::Registration reg{
    "perf_hotpath",
    "Perf — simulator query-kernel timings vs brute-force baseline (ns/op)",
    run_perf_hotpath};

}  // namespace
