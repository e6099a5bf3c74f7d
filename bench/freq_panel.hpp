#pragma once
// Shared panel machinery for the frequency-variation figures (6 and 7):
// runs a sharded protocol on 16 close-bound threads over a places spec
// while capturing each run's 100 Hz frequency trace, merged in protocol
// order. Delegates to bench_suite/protocol.hpp's per-run cloning contract
// (single implementation) via its end-of-run hook.
//
// The figures report only a summary of each merged trace
// (freqlog::FreqPanelSummary), built once when the panel is computed. The
// cached variant commits the RunMatrix, the raw trace as a <hash>.trace.csv
// archive and the summary as a <hash>.panel record, then the .key marker.
// A warm hit restores the matrix and the summary; it never reads the
// trace, and a missing or corrupt summary recomputes the cell.

#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "bench_suite/protocol.hpp"
#include "freqlog/logger.hpp"
#include "freqlog/trace_csv.hpp"

namespace omv::harness {

/// Figs. 6/7 count a sample as a dip below this fraction of its core's
/// fmax (the paper's brown and grey regions).
inline constexpr double kDipThreshold = 0.95;

/// A panel as the figures consume it.
struct FreqPanelResult {
  RunMatrix matrix;
  freqlog::FreqPanelSummary freq;
};

/// A computed panel before summarizing: the matrix and the merged trace.
struct FreqPanelTrace {
  RunMatrix matrix;
  freqlog::FreqTrace trace;
};

/// Geometry of the frequency figures' one-NUMA-vs-two-NUMA contrast on a
/// platform: equal-sized teams (Vera: 16 threads) placed on one domain
/// ("{0}:16:1") vs split across two ("{0}:8:1,{16}:8:1"). Not applicable
/// on single-NUMA machines or flat-frequency profiles — `reason` then
/// carries the explanatory line the harness prints before exiting 0.
struct FreqPanelGeometry {
  bool applicable = false;
  std::string reason;
  std::size_t threads = 0;  ///< team size of BOTH panels (always even).
  std::string one_places;
  std::string two_places;
};

inline FreqPanelGeometry freq_panel_geometry(const Platform& p) {
  FreqPanelGeometry g;
  if (p.machine.n_numa() < 2) {
    g.reason = "scenario '" + p.name +
               "' has a single NUMA domain; the one-vs-two NUMA placement "
               "contrast does not apply.";
    return g;
  }
  if (p.config.freq.episode_rate <= 0.0) {
    g.reason = "scenario '" + p.name +
               "' has a flat frequency profile (no dip episodes); the "
               "frequency-variation contrast does not apply.";
    return g;
  }
  // Panels are sized from the two domains actually used, not a global
  // cores/numa average: on lopsided machines domain 1 may hold far fewer
  // cores than domain 0, and the split panel must fit inside it.
  const auto d0 = p.machine.cores_in_numa(0);
  const auto d1 = p.machine.cores_in_numa(1);
  const std::size_t per = std::min(d0.size(), p.machine.n_cores() / 2);
  // Both panels must run the SAME team size or the CV contrast would
  // partly measure team size, not placement — so round down to an even
  // count that splits cleanly across the two domains AND fits entirely
  // inside domain 0 for the one-domain panel.
  const std::size_t half = std::min(
      {std::max<std::size_t>(1, per / 2), d1.size(), d0.size() / 2});
  if (half == 0) {
    g.reason = "scenario '" + p.name +
               "' is too small for the one-vs-two NUMA contrast (domains 0/1"
               " hold " +
               std::to_string(d0.size()) + "/" + std::to_string(d1.size()) +
               " cores); the placement contrast does not apply.";
    return g;
  }
  g.applicable = true;
  g.threads = 2 * half;
  // Primary-sibling places over the concrete core pools; on symmetric
  // machines the range compression reproduces the historical "{0}:16:1" /
  // "{0}:8:1,{16}:8:1" strings byte for byte.
  const std::vector<std::size_t> one_cores(
      d0.begin(), d0.begin() + static_cast<std::ptrdiff_t>(g.threads));
  std::vector<std::size_t> split_ids = sibling_ids(
      p.machine,
      {d0.begin(), d0.begin() + static_cast<std::ptrdiff_t>(half)}, 0);
  const std::vector<std::size_t> second_ids = sibling_ids(
      p.machine,
      {d1.begin(), d1.begin() + static_cast<std::ptrdiff_t>(half)}, 0);
  split_ids.insert(split_ids.end(), second_ids.begin(), second_ids.end());
  g.one_places = places_for_ids(sibling_ids(p.machine, one_cores, 0));
  g.two_places = places_for_ids(split_ids);
  return g;
}

/// Runs `spec` over `places` (`n_threads` threads — the paper's panels
/// used 16, one per place — close bind) against per-run clones of `base`,
/// sampling each run's whole timeline at 100 Hz — like the paper's logger
/// — after the run's last timed repetition.
/// `make_bench(sim, team_cfg)` builds the per-run benchmark object;
/// `rep(bench, team)` executes one repetition and returns microseconds.
template <typename MakeBench, typename Rep>
[[nodiscard]] FreqPanelTrace run_freq_panel(
    const sim::Simulator& base, const std::string& places,
    std::size_t n_threads, const ExperimentSpec& spec,
    core::Executor& executor, MakeBench make_bench, Rep rep) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = n_threads;
  cfg.places_spec = places;
  cfg.bind = topo::ProcBind::close;

  // Per-run traces land in run-indexed slots so the merged trace keeps
  // protocol order under sharded execution; the vector outlives the
  // synchronous sharded call.
  std::vector<freqlog::FreqTrace> traces(spec.runs);
  freqlog::FreqTrace* trace_slots = traces.data();

  FreqPanelTrace out;
  out.matrix = bench::run_protocol_sharded(
      base, cfg, spec, executor,
      [make_bench, cfg](sim::Simulator& sim) { return make_bench(sim, cfg); },
      rep,
      [trace_slots](auto& /*bench*/, ompsim::SimTeam& team,
                    sim::Simulator& sim, const RunSlot& slot) {
        freqlog::SimFreqReader reader(sim.freq(), sim.machine().n_cores());
        trace_slots[slot.run].append(
            freqlog::sample_sim(reader, 0.0, team.now(), 0.01));
      });
  for (const auto& tr : traces) out.trace.append(tr);
  return out;
}

/// run_freq_panel through the campaign result cache, summarized against
/// core_fmax(base.machine()) at kDipThreshold. The matrix goes into the
/// spec-hash cache as usual; the trace and the summary ride along as
/// sidecars, and only the summary is read back. A missing or corrupt
/// summary, or one taken at another threshold, vetoes the hit, so the
/// cache can only ever restore the complete panel.
template <typename MakeBench, typename Rep>
[[nodiscard]] FreqPanelResult run_freq_panel_cached(
    cli::RunContext& ctx, const std::string& label, SpecKey key,
    const sim::Simulator& base, const std::string& places,
    std::size_t n_threads, const ExperimentSpec& spec, MakeBench make_bench,
    Rep rep) {
  key.add("places_panel", places);
  key.add("threads_panel", n_threads);
  FreqPanelResult out;
  freqlog::FreqTrace trace;  // archived as .trace.csv, never read back
  out.matrix = ctx.protocol(
      label, spec, std::move(key),
      [&] {
        auto panel = run_freq_panel(base, places, n_threads, spec,
                                    ctx.executor(), make_bench, rep);
        trace = std::move(panel.trace);
        out.freq = freqlog::summarize_panel(trace, core_fmax(base.machine()),
                                            kDipThreshold);
        return std::move(panel.matrix);
      },
      /*save_extra=*/
      [&](const std::string& stem) {
        freqlog::save_freq_trace(stem + ".trace.csv", trace);
        freqlog::save_panel_summary(stem + ".panel", out.freq);
      },
      /*load_extra=*/
      [&out](const std::string& stem) {
        try {
          out.freq = freqlog::load_panel_summary(stem + ".panel",
                                                 kDipThreshold);
          return true;
        } catch (const std::exception&) {
          return false;
        }
      });
  return out;
}

}  // namespace omv::harness
