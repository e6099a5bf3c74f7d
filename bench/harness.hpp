#pragma once
// Shared scaffolding for the paper-reproduction bench harnesses.
//
// Every harness reproduces one table or figure of the paper and registers
// itself into the omnivar registry (cli/registry.hpp); `omnivar --only
// <name>` runs it. Harnesses run with no arguments using the paper's full
// protocol (10 runs x 100 outer repetitions); set OMNIVAR_QUICK=1 to
// shrink the protocol for smoke runs, or OMNIVAR_RUNS / OMNIVAR_REPS to
// override explicitly.
//
// Protocol runs are sharded onto the campaign's executor (ctx.executor(),
// --jobs N). Results are bit-identical at every width because each run
// derives its entire state from its run seed. With --out DIR, every
// protocol cell persists through the spec-hash result cache and the
// harness emits a JSON artifact (cli/campaign.hpp).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "cli/campaign.hpp"
#include "cli/options.hpp"
#include "cli/registry.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/spec_hash.hpp"
#include "omp_model/team.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"

namespace omv::harness {

/// Applies a protocol-count override from the environment: a malformed or
/// zero value warns and leaves `value` unchanged (a typo'd OMNIVAR_RUNS
/// must not silently produce an empty RunMatrix and NaN statistics).
inline void apply_count_env(const char* name, std::size_t& value) {
  const char* text = std::getenv(name);
  if (text == nullptr) return;
  std::size_t v = 0;
  if (cli::parse_uint(text, v) && v > 0) {
    value = v;
  } else {
    // Warn once per variable: paper_spec runs once per swept
    // configuration, and a dozen identical lines would bury real output.
    static std::set<std::string> warned;
    if (warned.insert(name).second) {
      std::fprintf(stderr,
                   "harness: ignoring malformed %s='%s' (expected a "
                   "positive integer)\n",
                   name, text);
    }
  }
}

/// Protocol spec honoring the environment overrides.
inline ExperimentSpec paper_spec(std::uint64_t seed, std::size_t runs = 10,
                                 std::size_t reps = 100) {
  ExperimentSpec spec;
  spec.runs = runs;
  spec.reps = reps;
  spec.warmup = 1;
  spec.seed = seed;
  if (const char* q = std::getenv("OMNIVAR_QUICK"); q && q[0] == '1') {
    spec.runs = std::min<std::size_t>(spec.runs, 3);
    spec.reps = std::min<std::size_t>(spec.reps, 10);
  }
  apply_count_env("OMNIVAR_RUNS", spec.runs);
  apply_count_env("OMNIVAR_REPS", spec.reps);
  return spec;
}

/// One materialized platform a harness runs on: a scenario's machine and
/// calibration, plus the scenario fingerprint every cell key absorbs so
/// cached cells can never be served across platforms.
struct Platform {
  std::string name;  ///< display name ("Dardel", "Vera", scenario display).
  topo::Machine machine;
  sim::SimConfig config;
  /// Frequency profile of an active-DVFS session on this platform (the
  /// paper's Figs. 6/7 regime); see freq_session_platform().
  sim::FreqConfig freq_session;
  std::string fingerprint;  ///< ScenarioSpec fingerprint (16-hex).
  /// The label and geometry `machine` was built from (see paper_cells).
  scenario::MachineSpec spec;
};

/// Materializes a scenario into a runnable platform.
inline Platform to_platform(const scenario::ScenarioSpec& s) {
  return {s.display, s.machine.build(), s.sim, s.freq_session,
          s.fingerprint(), s.machine};
}

/// The two platforms of the paper — thin wrappers over the scenario
/// catalog (pinned bit-identical to the legacy factory bundles by
/// tests/test_scenario.cpp).
inline Platform dardel() {
  return to_platform(scenario::ScenarioRegistry::instance().get("dardel"));
}

inline Platform vera() {
  return to_platform(scenario::ScenarioRegistry::instance().get("vera"));
}

/// The platforms this invocation contrasts: the paper's Dardel+Vera pair
/// by default, the single selected scenario under --scenario. Each is
/// recorded into the artifact's provenance. The contrast harnesses run
/// every platform the same way, with the cells paper_cells picks for it.
inline std::vector<Platform> platforms(cli::RunContext& ctx) {
  std::vector<Platform> out;
  if (const auto* s = ctx.scenario()) {
    out.push_back(to_platform(*s));
  } else {
    out.push_back(dardel());
    out.push_back(vera());
  }
  for (const auto& p : out) ctx.note_platform(p.name, p.fingerprint);
  return out;
}

/// The single platform of the non-contrast harnesses (the paper staged
/// them on Dardel); the selected scenario when one is active.
inline Platform primary(cli::RunContext& ctx) {
  Platform p = ctx.scenario() ? to_platform(*ctx.scenario()) : dardel();
  ctx.note_platform(p.name, p.fingerprint);
  return p;
}

/// The frequency-figure platform: the scenario with its active-DVFS
/// session profile swapped in (default: the paper's dippy Vera session).
inline Platform freq_session_platform(cli::RunContext& ctx) {
  Platform p = ctx.scenario() ? to_platform(*ctx.scenario()) : vera();
  p.config.freq = p.freq_session;
  ctx.note_platform(p.name, p.fingerprint);
  return p;
}

/// One protocol team of a contrast harness: its size and its base seed.
struct Team {
  std::size_t threads = 0;
  std::uint64_t seed = 0;
};

/// A thread ladder swept under one base seed.
struct Ladder {
  std::vector<std::size_t> threads;
  std::uint64_t seed = 0;
};

/// The cells a contrast harness runs on `p`: the paper's hand-picked team
/// sizes and seeds when `p` is the paper's Dardel or Vera, else `derived`,
/// the cells the harness works out from the machine (thread_ladder,
/// full_team, spare2_team under the Dardel seeds).
///
/// `p` is a paper machine when its MachineSpec, label and geometry both,
/// equals that preset's. Neither half alone will do: README's `my-box`
/// (`base = dardel` on 96 HW threads) keeps the label "dardel" but has no
/// room for Dardel's 254-thread teams, and dvfs-dippy has Vera's geometry
/// under its own label. So the default campaign, `--scenario dardel`,
/// `--scenario vera` and a `base = vera` file that only changes the
/// calibration all run the paper's cells.
template <class Cells>
Cells paper_cells(const Platform& p, Cells dardel, Cells vera,
                  Cells derived) {
  const auto& catalog = scenario::ScenarioRegistry::instance();
  if (p.spec == catalog.get("dardel").machine) return dardel;
  if (p.spec == catalog.get("vera").machine) return vera;
  return derived;
}

/// Near-geometric thread ladder for an arbitrary machine: 2, 4, 8, ...
/// capped at the paper's spare-2-CPUs protocol size. The scaling
/// harnesses sweep it on every machine but the paper's two, which keep
/// the publication's hand-picked ladders (paper_cells).
inline std::vector<std::size_t> thread_ladder(const topo::Machine& m) {
  const std::size_t cap =
      m.n_threads() > 4 ? m.n_threads() - 2 : m.n_threads();
  std::vector<std::size_t> out;
  for (std::size_t t = 2; t < cap; t *= 2) out.push_back(t);
  if (out.empty() || out.back() != cap) out.push_back(cap);
  return out;
}

/// The "full but not oversaturated" team size: every physical core when
/// the machine has SMT headroom for the OS, else all-but-two HW threads
/// (Dardel: 128, Vera: 30 — the paper's full-scale columns).
inline std::size_t full_team(const topo::Machine& m) {
  return std::min(m.n_cores(),
                  m.n_threads() > 2 ? m.n_threads() - 2 : m.n_threads());
}

/// The paper's spare-2-CPUs full-node team (Dardel: 254, Vera: 30),
/// clamped so machines with <= 2 HW threads use every thread instead of
/// wrapping below zero.
inline std::size_t spare2_team(const topo::Machine& m) {
  return m.n_threads() > 2 ? m.n_threads() - 2 : m.n_threads();
}

/// OMP_PLACES spec of single-HW-thread places over explicit os ids, in
/// order. Consecutive runs compress to the "{start}:count:1" range form,
/// so on conventionally numbered (symmetric) machines this reproduces the
/// historical hand-written strings byte for byte.
inline std::string places_for_ids(const std::vector<std::size_t>& ids) {
  std::string out;
  std::size_t i = 0;
  while (i < ids.size()) {
    std::size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[j - 1] + 1) ++j;
    if (!out.empty()) out += ',';
    out += '{' + std::to_string(ids[i]) + "}:" + std::to_string(j - i) +
           ":1";
    i = j;
  }
  return out;
}

/// Per-core boost clock table — feeds FreqTrace's per-core dip
/// thresholds, so an E-core cruising at its own fmax never counts as a
/// frequency dip against the P-cores' higher clock. On homogeneous
/// machines every entry equals max_ghz() and the statistics are
/// bit-identical to the historical machine-wide threshold.
inline std::vector<double> core_fmax(const topo::Machine& m) {
  std::vector<double> f(m.n_cores());
  for (std::size_t c = 0; c < m.n_cores(); ++c) f[c] = m.core_max_ghz(c);
  return f;
}

/// os ids of the smt_index==`sibling` HW thread of each listed core, in
/// core order (cores lacking that sibling are skipped). sibling=0 gives
/// the ST pool of the cores, sibling=1 the MT companions.
inline std::vector<std::size_t> sibling_ids(
    const topo::Machine& m, const std::vector<std::size_t>& cores,
    std::size_t sibling) {
  std::vector<std::size_t> by_core(m.n_cores(),
                                   static_cast<std::size_t>(-1));
  for (const auto& t : m.threads()) {
    if (t.smt_index == sibling) by_core[t.core] = t.os_id;
  }
  std::vector<std::size_t> out;
  out.reserve(cores.size());
  for (std::size_t c : cores) {
    if (by_core[c] != static_cast<std::size_t>(-1)) {
      out.push_back(by_core[c]);
    }
  }
  return out;
}

/// Standard pinned team config (OMP_PLACES=threads, OMP_PROC_BIND=close).
inline ompsim::TeamConfig pinned_team(std::size_t threads) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = threads;
  cfg.places_spec = "threads";
  cfg.bind = topo::ProcBind::close;
  return cfg;
}

/// Unpinned team (the paper's "before thread-pinning" configuration).
inline ompsim::TeamConfig unpinned_team(std::size_t threads) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = threads;
  cfg.bind = topo::ProcBind::none;
  return cfg;
}

/// Cache-key fingerprint of a team configuration — every TeamConfig field
/// that changes the simulated timings (threads, places, bind, barrier
/// algorithm, the unpinned-placement knobs, and the inter-repetition
/// wall-clock gap).
inline SpecKey& add_team_key(SpecKey& k, const ompsim::TeamConfig& cfg) {
  k.add("threads", cfg.n_threads);
  k.add("places", cfg.places_spec);
  k.add("bind", static_cast<std::uint64_t>(cfg.bind));
  k.add("barrier", static_cast<std::uint64_t>(cfg.barrier_alg));
  k.add("migrate_prob", cfg.placement.migrate_prob);
  k.add("bad_migration_prob", cfg.placement.bad_migration_prob);
  k.add("rescue_prob", cfg.placement.rescue_prob);
  k.add("inter_rep_gap", cfg.inter_rep_gap);
  return k;
}

/// Starts a cache key for one protocol cell: benchmark kind, platform and
/// its scenario fingerprint, team. The fingerprint covers every machine /
/// noise / freq / mem / cost parameter, so cells simulated under one
/// scenario can never satisfy a lookup from another. Append benchmark-
/// specific fields (construct, schedule, chunk, kernel, ...) before
/// passing it to RunContext::protocol.
inline SpecKey cell_key(std::string_view bench_kind, const Platform& p,
                        const ompsim::TeamConfig& team) {
  SpecKey k;
  k.add("bench", bench_kind);
  k.add("platform", p.name);
  k.add("scenario_fp", p.fingerprint);
  add_team_key(k, team);
  return k;
}

/// Prints the standard harness header; under --scenario a "Scenario:"
/// line (name, fingerprint, geometry) makes the report self-describing.
/// The default campaign prints exactly the historical header. Routed
/// through ctx.print so the campaign cell scheduler can capture and
/// replay the harness's stdout in order.
inline void header(cli::RunContext& ctx, const std::string& experiment,
                   const std::string& claim) {
  ctx.print("%s", report::banner(experiment).c_str());
  if (const auto* s = ctx.scenario()) {
    ctx.print("Scenario: %s [%s %s] %s\n", s->display.c_str(),
              s->name.c_str(), s->fingerprint().c_str(),
              s->geometry_summary().c_str());
  }
  ctx.print("Paper claim: %s\n\n", claim.c_str());
}

}  // namespace omv::harness
