// layer_probe — outside-in timings of omnivar's module APIs.
//
// The benchmark (benchmark/run.py) measures omnivar only from outside: it
// times whole campaign processes. This probe supplies the per-layer view
// without instrumenting the program. It links the same static module
// archives the benchmarked omnivar binary was built from and times calls
// into each module's public functions:
//
//   layer_probe preset-text NAME
//       print catalog preset NAME in the scenario-file format (the
//       benchmark's scenario generator reads the base rates it perturbs
//       from here, so the workload follows the catalog)
//   layer_probe measure [--platform TAG=SELECTOR ...] [--cache DIR]
//                       --scratch DIR
//       time the probe calls of every platform and of the cache (at least
//       one of the two) and print one line per metric:
//         name<TAB>value<TAB>unit<TAB>start_ns<TAB>end_ns
//       start/end are steady-clock nanoseconds (CLOCK_MONOTONIC, the clock
//       behind Python's time.monotonic_ns), so run.py can place each
//       call in its trace. SELECTOR is a catalog name or a scenario file;
//       DIR is a campaign's result cache (RunMatrix CSVs and fig6/fig7
//       .trace.csv sidecars); the probe writes only under --scratch.
//
// Per-call costs are medians over kBatches timed batches, each grown until
// it lasts kBudget/kBatches seconds; protocol phases (SimTeam) are timed one
// call at a time inside a miniature run x rep protocol, because each phase
// only makes sense in protocol order.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_suite/epcc.hpp"
#include "bench_suite/schedbench_sim.hpp"
#include "bench_suite/syncbench_sim.hpp"
#include "core/atomic_file.hpp"
#include "core/bootstrap.hpp"
#include "core/descriptive.hpp"
#include "core/rng.hpp"
#include "core/spec_hash.hpp"
#include "core/trace_io.hpp"
#include "freqlog/trace_csv.hpp"
#include "omp_model/team.hpp"
#include "omp_model/worksharing.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace fs = std::filesystem;
using namespace omv;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatches = 5;
/// Seconds spent timing each probed call site.
constexpr double kBudget = 0.1;
/// Timed passes over the cache files per I/O metric.
constexpr std::size_t kPasses = 3;
constexpr std::size_t kWindows = 256;
/// Simulated span the query windows are drawn from (seconds).
constexpr double kHorizon = 2.0;
/// Simulated compute per SimTeam::compute call: one rep-scale segment.
constexpr double kComputeWork = 1e-4;
/// Iterations per thread of the probed dynamic,1 loop.
constexpr std::size_t kItersPerThread = 16;
constexpr std::size_t kRepsPerRun = 10;

volatile double g_sink = 0.0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void emit(const std::string& name, double value, const char* unit,
          std::int64_t start_ns) {
  std::printf("%s\t%.17g\t%s\t%lld\t%lld\n", name.c_str(), value, unit,
              static_cast<long long>(start_ns),
              static_cast<long long>(now_ns()));
}

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::logic_error("median of an empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Median seconds per call of `fn` over kBatches batches; the batch size
/// doubles until one batch lasts kBudget/kBatches, and only batches of
/// that length count (the short ones double as warm-up).
double seconds_per_call(const std::function<void()>& fn) {
  const double slice = kBudget / static_cast<double>(kBatches);
  std::vector<double> per_call;
  std::size_t batch = 1;
  while (per_call.size() < kBatches) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double s = seconds_since(t0);
    if (s < slice) {
      batch *= 2;
      continue;
    }
    per_call.push_back(s / static_cast<double>(batch));
  }
  return median(per_call);
}

/// The paper's spare-2-CPUs full-node team (Dardel 254, Vera 30).
std::size_t full_team(const topo::Machine& m) {
  return m.n_threads() > 2 ? m.n_threads() - 2 : m.n_threads();
}

ompsim::TeamConfig pinned_team(std::size_t threads) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = threads;
  cfg.places_spec = "threads";
  cfg.bind = topo::ProcBind::close;
  return cfg;
}

template <typename F>
double time_call(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// SimTeam protocol phases at the full team, timed call by call over
/// whole runs of kRepsPerRun reps until kBudget is spent (>= 2 runs).
void probe_team_phases(const std::string& tag,
                       const scenario::ScenarioSpec& spec) {
  const std::int64_t start = now_ns();
  sim::Simulator s(spec.machine.build(), spec.sim);
  ompsim::SimTeam team(s, pinned_team(full_team(s.machine())), 1);
  std::vector<double> begin_run, begin_rep, fork, compute, barrier, dyn;
  const std::size_t iters = team.size() * kItersPerThread;
  const auto t0 = Clock::now();
  for (std::uint64_t run = 0; run < 2 || seconds_since(t0) < kBudget; ++run) {
    begin_run.push_back(time_call([&] { team.begin_run(1000 + run); }));
    for (std::size_t rep = 0; rep < kRepsPerRun; ++rep) {
      begin_rep.push_back(time_call([&] { team.begin_rep(); }));
      fork.push_back(time_call([&] { team.fork(); }));
      compute.push_back(time_call([&] { team.compute(kComputeWork); }));
      barrier.push_back(time_call([&] { team.barrier(); }));
      dyn.push_back(time_call([&] {
        ompsim::for_loop(team, ompsim::Schedule::dynamic, 1, iters,
                         bench::EpccParams::schedbench().delay_us * 1e-6);
      }));
    }
  }
  g_sink = g_sink + team.now();
  const std::string p = "." + tag;
  emit("omp_model.begin_run_us" + p, median(begin_run) * 1e6, "us", start);
  emit("omp_model.begin_rep_us" + p, median(begin_rep) * 1e6, "us", start);
  emit("omp_model.fork_us" + p, median(fork) * 1e6, "us", start);
  emit("omp_model.compute_us" + p, median(compute) * 1e6, "us", start);
  emit("omp_model.barrier_us" + p, median(barrier) * 1e6, "us", start);
  emit("omp_model.for_dynamic_us" + p, median(dyn) * 1e6, "us", start);
}

/// One EPCC repetition per call (syncbench barrier, schedbench dynamic,1)
/// at the full team, with a fresh simulated run every kRepsPerRun reps.
void probe_epcc_reps(const std::string& tag,
                     const scenario::ScenarioSpec& spec) {
  sim::Simulator s(spec.machine.build(), spec.sim);
  const auto cfg = pinned_team(full_team(s.machine()));
  ompsim::SimTeam team(s, cfg, 2);
  std::uint64_t run = 0;
  std::size_t rep = 0;
  const auto next_rep = [&] {
    if (rep++ % kRepsPerRun == 0) team.begin_run(2000 + run++);
  };

  std::int64_t start = now_ns();
  bench::SimSyncBench sync(s, cfg);
  const double sync_s = seconds_per_call(
      [&] {
        next_rep();
        g_sink =
            g_sink + sync.rep_time_us(team, bench::SyncConstruct::barrier);
      });
  emit("bench_suite.syncbench_rep_us." + tag, sync_s * 1e6, "us", start);

  start = now_ns();
  rep = 0;
  // The table2 grab budget: the dynamic,1 cells the paper pair runs.
  bench::SimSchedBench sched(s, cfg, bench::EpccParams::schedbench(), 10000);
  const double sched_s = seconds_per_call(
      [&] {
        next_rep();
        g_sink = g_sink +
                 sched.rep_time_us(team, ompsim::Schedule::dynamic, 1);
      });
  emit("bench_suite.schedbench_rep_us." + tag, sched_s * 1e6, "us", start);
}

/// Simulator and model queries over fixed random windows on the
/// platform's own calibration (so at its own event density), with the
/// event streams materialized past every window before timing.
void probe_sim_queries(const std::string& tag,
                       const scenario::ScenarioSpec& spec) {
  sim::Simulator s(spec.machine.build(), spec.sim);
  s.begin_run(3000, s.machine().primary_threads());
  s.noise().materialize_to(kHorizon + 1.0);
  s.freq().materialize_to(kHorizon + 1.0);
  Rng rng(7);
  std::vector<std::size_t> hw, core;
  std::vector<double> t0, t1, work;
  for (std::size_t i = 0; i < kWindows; ++i) {
    hw.push_back(rng.next_below(s.machine().n_threads()));
    core.push_back(rng.next_below(s.machine().n_cores()));
    t0.push_back(rng.uniform(0.0, kHorizon));
    t1.push_back(t0.back() + rng.uniform(1e-5, 1e-3));
    work.push_back(rng.uniform(1e-5, 1e-3));
  }
  std::size_t k = 0;
  const auto next = [&] { return k = (k + 1) % kWindows; };

  const auto probe = [&](const char* name, const std::function<void()>& fn) {
    const std::int64_t start = now_ns();
    emit(std::string("sim.") + name + "." + tag,
         seconds_per_call(fn) * 1e9, "ns", start);
  };
  probe("exec_ns", [&] {
    const std::size_t i = next();
    g_sink = g_sink + s.exec(hw[i], t0[i], work[i]);
  });
  probe("preemption_delay_ns", [&] {
    const std::size_t i = next();
    g_sink = g_sink + s.noise().preemption_delay(hw[i], t0[i], t1[i]);
  });
  probe("mean_factor_ns", [&] {
    const std::size_t i = next();
    g_sink = g_sink + s.freq().mean_factor(core[i], t0[i], t1[i]);
  });
  probe("elapsed_for_work_ns", [&] {
    const std::size_t i = next();
    g_sink = g_sink + s.freq().elapsed_for_work(core[i], t0[i], work[i]);
  });
}

void probe_scenario(const std::string& tag, const std::string& selector,
                    const scenario::ScenarioSpec& spec) {
  std::int64_t start = now_ns();
  double s = seconds_per_call([&] {
    g_sink = g_sink + scenario::resolve(selector).sim.noise.irq_rate;
  });
  emit("scenario.resolve_us." + tag, s * 1e6, "us", start);

  start = now_ns();
  s = seconds_per_call([&] {
    g_sink = g_sink + static_cast<double>(spec.fingerprint().size());
  });
  emit("scenario.fingerprint_us." + tag, s * 1e6, "us", start);

  start = now_ns();
  s = seconds_per_call([&] {
    g_sink = g_sink + static_cast<double>(spec.machine.build().n_threads());
  });
  emit("topo.machine_build_us." + tag, s * 1e6, "us", start);
}

/// Median MB/s of kPasses timed passes of `pass` over `bytes` bytes.
double pass_rate_mb_s(std::uintmax_t bytes,
                      const std::function<void()>& pass) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < kPasses; ++i) {
    rates.push_back(static_cast<double>(bytes) / 1e6 / time_call(pass));
  }
  return median(rates);
}

/// core and freqlog I/O over a campaign's own cache, plus the statistics
/// and hashing calls every cell pays.
void probe_cache_io(const fs::path& cache, const fs::path& scratch) {
  std::vector<fs::path> matrices, traces;
  for (const auto& e : fs::directory_iterator(cache)) {
    const std::string name = e.path().filename().string();
    if (name.ends_with(".trace.csv")) {
      traces.push_back(e.path());
    } else if (name.ends_with(".csv")) {
      matrices.push_back(e.path());
    }
  }
  std::sort(matrices.begin(), matrices.end());
  std::sort(traces.begin(), traces.end());
  // An empty set would report a rate of 0, or none at all.
  if (matrices.empty() || traces.empty()) {
    throw std::runtime_error("no RunMatrix CSVs or no .trace.csv sidecars "
                             "under " + cache.string());
  }
  std::uintmax_t bytes = 0;
  for (const auto& p : matrices) bytes += fs::file_size(p);
  std::vector<RunMatrix> loaded(matrices.size());
  std::int64_t start = now_ns();
  emit("core.run_matrix_load_mb_s", pass_rate_mb_s(bytes, [&] {
         for (std::size_t i = 0; i < matrices.size(); ++i) {
           loaded[i] = io::load_run_matrix(matrices[i].string());
         }
       }),
       "MB/s", start);
  start = now_ns();
  emit("core.run_matrix_save_mb_s", pass_rate_mb_s(bytes, [&] {
         for (std::size_t i = 0; i < matrices.size(); ++i) {
           io::save_run_matrix((scratch / matrices[i].filename()).string(),
                               loaded[i]);
         }
       }),
       "MB/s", start);

  // The statistics a harness computes per cell, on the largest cached
  // RunMatrix (runs x reps repetition times).
  std::vector<double> sample;
  for (const RunMatrix& m : loaded) {
    std::vector<double> times = m.flatten();
    if (times.size() > sample.size()) sample = std::move(times);
  }
  start = now_ns();
  emit("core.summarize_us",
       seconds_per_call(
           [&] { g_sink = g_sink + stats::summarize(sample).median; }) *
           1e6,
       "us", start);
  start = now_ns();
  emit("core.bootstrap_ci_ms",
       seconds_per_call(
           [&] { g_sink = g_sink + stats::bootstrap_mean_ci(sample).lo; }) *
           1e3,
       "ms", start);

  // A cell key of the shape harness::cell_key builds.
  start = now_ns();
  emit("core.spec_hash_ns",
       seconds_per_call(
           [&] {
             SpecKey k;
             k.add("bench", "schedbench")
                 .add("platform", "Dardel")
                 .add("scenario_fp", "c6f0951fe4663094")
                 .add("threads", std::uint64_t{254})
                 .add("places", "threads")
                 .add("bind", std::uint64_t{1})
                 .add("inter_rep_gap", 0.05)
                 .add("schedule", "dynamic")
                 .add("chunk", std::uint64_t{1})
                 .add("engine", "omnivar-engine")
                 .add("label", "Dardel/t254")
                 .add("seed", std::uint64_t{1072})
                 .add("runs", std::uint64_t{10})
                 .add("reps", std::uint64_t{100});
             g_sink = g_sink + static_cast<double>(k.hex().size());
           }) *
           1e9,
       "ns", start);

  std::string payload;
  const fs::path& typical = matrices[matrices.size() / 2];
  if (!core::read_file(typical.string(), payload)) {
    throw std::runtime_error("cannot read " + typical.string());
  }
  const std::string target = (scratch / "atomic_write.csv").string();
  start = now_ns();
  emit("core.atomic_write_us",
       seconds_per_call([&] { core::atomic_write_file(target, payload); }) *
           1e6,
       "us", start);

  std::uintmax_t trace_bytes = 0;
  for (const auto& p : traces) trace_bytes += fs::file_size(p);
  std::vector<freqlog::FreqTrace> trs(traces.size());
  start = now_ns();
  emit("freqlog.trace_load_mb_s", pass_rate_mb_s(trace_bytes, [&] {
         for (std::size_t i = 0; i < traces.size(); ++i) {
           trs[i] = freqlog::load_freq_trace(traces[i].string());
         }
       }),
       "MB/s", start);
  start = now_ns();
  emit("freqlog.trace_save_mb_s", pass_rate_mb_s(trace_bytes, [&] {
         for (std::size_t i = 0; i < traces.size(); ++i) {
           freqlog::save_freq_trace((scratch / traces[i].filename()).string(),
                                    trs[i]);
         }
       }),
       "MB/s", start);
}

int usage() {
  std::fprintf(stderr,
               "usage: layer_probe preset-text NAME\n"
               "       layer_probe measure [--platform TAG=SELECTOR...] "
               "[--cache DIR] --scratch DIR\n");
  return 2;
}

int measure(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> platforms;
  fs::path cache;
  fs::path scratch;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--platform") {
      const auto eq = v.find('=');
      if (eq == std::string::npos || eq == 0) return usage();
      platforms.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (a == "--cache") {
      cache = v;
    } else if (a == "--scratch") {
      scratch = v;
    } else {
      return usage();
    }
  }
  if ((platforms.empty() && cache.empty()) || scratch.empty()) {
    return usage();
  }
  fs::create_directories(scratch);
  for (const auto& [tag, selector] : platforms) {
    const scenario::ScenarioSpec spec = scenario::resolve(selector);
    probe_scenario(tag, selector, spec);
    probe_team_phases(tag, spec);
    probe_epcc_reps(tag, spec);
    probe_sim_queries(tag, spec);
  }
  if (!cache.empty()) probe_cache_io(cache, scratch);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::string(argv[1]) == "preset-text") {
      const auto& registry = scenario::ScenarioRegistry::instance();
      std::fputs(registry.get(argv[2]).to_text().c_str(), stdout);
      return 0;
    }
    if (argc >= 2 && std::string(argv[1]) == "measure") {
      return measure(argc, argv);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_probe: %s\n", e.what());
    return 1;
  }
}
