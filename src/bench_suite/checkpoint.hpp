#pragma once
// Checkpointed protocol execution.
//
// The protocol loop gains a mid-flight persistence point: every N timed
// repetitions the full run state (simulator models, team clocks, placement)
// plus the protocol cursor and all completed repetition times are serialized
// to a versioned snapshot file. A fresh process can resume the cell from the
// snapshot and continue; the continuation is bit-identical to straight-line
// execution, because every stateful component round-trips exactly (the
// snapshot visitors serialize the same columnar arrays the models compute
// from) and the rep loop re-enters at the precise cursor.
//
// Checkpointed cells execute serially: the protocol cursor is a single
// linear position, and the sharded path's out-of-order run completion has no
// meaningful "latest checkpoint". Runs still derive their entire state from
// run_seed, so the serial result is bit-identical to the sharded one.

#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/deadline.hpp"
#include "core/experiment.hpp"
#include "core/snapshot.hpp"
#include "omp_model/team.hpp"
#include "sim/simulator.hpp"

namespace omv::bench {

/// Default (no-op) end-of-run hook for run_protocol_sharded /
/// run_protocol_checkpointed.
struct NoRunEndHook {
  template <typename Bench>
  void operator()(Bench&, ompsim::SimTeam&, sim::Simulator&,
                  const RunSlot&) const noexcept {}
};

/// Serializes a team's (and its simulator's) full run state into a
/// standalone snapshot blob (header + fields, no stamp).
[[nodiscard]] std::string capture_run_state(ompsim::SimTeam& team);

/// Restores a blob produced by capture_run_state. `origin` labels
/// diagnostics (usually the snapshot file path plus a cursor note).
void restore_run_state(const std::string& blob, const std::string& origin,
                       ompsim::SimTeam& team);

/// A cell checkpoint loaded from disk.
struct LoadedCheckpoint {
  snap::SnapshotStamp stamp;  ///< identity + (run, rep) cursor.
  /// Repetition times of runs completed before the checkpoint.
  std::vector<std::vector<double>> done_times;
  /// End-of-run state blobs matching done_times (empty strings when the
  /// protocol carries no end-of-run hook).
  std::vector<std::string> done_states;
  /// Timed repetition times completed so far in run `stamp.run`.
  std::vector<double> partial;
  /// Mid-run state of run `stamp.run` at repetition `stamp.rep`.
  std::string current_state;
};

/// Loads and strictly validates the checkpoint named by `pol.resume_from`
/// (nullopt when the policy names no resume source). Throws
/// snap::SnapshotError on any mismatch: wrong magic, version skew, engine /
/// scenario-fingerprint / cell mismatch, truncation.
[[nodiscard]] std::optional<LoadedCheckpoint> load_cell_checkpoint(
    const snap::CheckpointPolicy& pol);

/// Atomically writes a cell checkpoint at cursor (run, rep) to `pol.path`,
/// then honours `pol.stop_after` (throws snap::CheckpointStop once the
/// process-wide write counter reaches it — the test/CI kill switch).
void write_cell_checkpoint(const snap::CheckpointPolicy& pol,
                           std::uint64_t run, std::uint64_t rep,
                           const std::vector<std::vector<double>>& done_times,
                           const std::vector<std::string>& done_states,
                           const std::vector<double>& partial,
                           const std::string& current_state);

/// Removes the cell's checkpoint file, if any (called once the cell
/// completes — a finished cell must not resume from a stale cursor).
void clear_cell_checkpoint(const snap::CheckpointPolicy& pol);

/// Serial protocol loop with checkpoint/resume. Mirrors the per-run cloning
/// contract of run_protocol_sharded exactly (private Simulator clone, bench
/// via make_bench, private SimTeam, begin_run(run_seed)), so its results are
/// bit-identical to both the sharded and the serial paths. Completed runs
/// found in a resume snapshot are not re-executed: their repetition times
/// are taken from the snapshot, and — when an end-of-run hook is present —
/// their end-of-run state is restored so the hook replays bit-identically
/// (hooks may draw from model RNG streams, e.g. frequency-trace sampling).
template <typename MakeBench, typename Rep, typename OnRunEnd = NoRunEndHook>
[[nodiscard]] RunMatrix run_protocol_checkpointed(
    const sim::Simulator& base, const ompsim::TeamConfig& team_cfg,
    const ExperimentSpec& spec, MakeBench make_bench, Rep rep,
    OnRunEnd on_run_end, const snap::CheckpointPolicy& pol) {
  constexpr bool kHasHook =
      !std::is_same_v<std::decay_t<OnRunEnd>, NoRunEndHook>;
  const topo::Machine machine = base.machine();
  const sim::SimConfig sim_cfg = base.config();

  std::vector<std::vector<double>> done_times;
  std::vector<std::string> done_states;
  std::vector<double> partial;
  std::string resume_state;
  std::size_t resume_run = 0;
  std::size_t resume_rep = 0;
  bool resuming = false;
  if (auto loaded = load_cell_checkpoint(pol)) {
    resume_run = static_cast<std::size_t>(loaded->stamp.run);
    resume_rep = static_cast<std::size_t>(loaded->stamp.rep);
    if (resume_run != loaded->done_times.size() ||
        loaded->done_states.size() != loaded->done_times.size() ||
        loaded->partial.size() != resume_rep || resume_run >= spec.runs ||
        resume_rep > spec.reps) {
      snap::fail(pol.resume_from, 0,
                 "checkpoint cursor inconsistent with the protocol spec "
                 "(runs/reps changed?)");
    }
    done_times = std::move(loaded->done_times);
    done_states = std::move(loaded->done_states);
    partial = std::move(loaded->partial);
    resume_state = std::move(loaded->current_state);
    resuming = true;
  }

  RunMatrix matrix(spec.name);
  for (std::size_t r = 0; r < spec.runs; ++r) {
    const std::uint64_t run_seed = derive_run_seed(spec.seed, r);
    const RunSlot slot{r, run_seed};

    if (r < done_times.size()) {
      // Completed before the checkpoint. Replay the end-of-run hook from
      // the run's restored end state so hook side effects (trace sampling)
      // are rebuilt bit-identically; skip construction entirely otherwise.
      if constexpr (kHasHook) {
        sim::Simulator sim(machine, sim_cfg);
        auto bench = make_bench(sim);
        ompsim::SimTeam team(sim, team_cfg, spec.seed);
        restore_run_state(done_states[r],
                          pol.resume_from + " (run " + std::to_string(r) +
                              " end state)",
                          team);
        on_run_end(bench, team, sim, slot);
      }
      matrix.add_run(done_times[r]);
      continue;
    }

    sim::Simulator sim(machine, sim_cfg);
    auto bench = make_bench(sim);
    ompsim::SimTeam team(sim, team_cfg, spec.seed);
    std::vector<double> times;
    std::size_t start_rep = 0;
    if (resuming && r == resume_run) {
      // Warmup repetitions ran before the checkpoint's first timed rep.
      restore_run_state(resume_state, pol.resume_from, team);
      std::swap(times, partial);
      start_rep = resume_rep;
    } else {
      team.begin_run(run_seed);
      for (std::size_t w = 0; w < spec.warmup; ++w) {
        core::check_cell_deadline();
        (void)rep(bench, team);
      }
    }

    times.reserve(spec.reps);
    for (std::size_t k = start_rep; k < spec.reps; ++k) {
      // Deadline poll before each timed rep: a checkpointed cell that blows
      // its --cell-timeout unwinds here with CellTimeout; the last
      // checkpoint (if any) survives for --resume after the quarantine is
      // investigated.
      core::check_cell_deadline();
      times.push_back(rep(bench, team));
      const bool final_rep = r + 1 == spec.runs && k + 1 == spec.reps;
      if (pol.every_reps > 0 && !pol.path.empty() && !final_rep &&
          (k + 1) % pol.every_reps == 0) {
        write_cell_checkpoint(pol, r, k + 1, done_times, done_states, times,
                              capture_run_state(team));
      }
    }

    // End-of-run state is captured before the hook fires — the same cursor
    // a checkpoint landing at rep == spec.reps holds — so the hook replay
    // on resume starts from the identical stream position.
    std::string end_state;
    if constexpr (kHasHook) {
      end_state = capture_run_state(team);
      if (spec.reps > 0) on_run_end(bench, team, sim, slot);
    }
    done_states.push_back(std::move(end_state));
    done_times.push_back(times);
    matrix.add_run(std::move(times));
  }

  if (!pol.path.empty()) clear_cell_checkpoint(pol);
  return matrix;
}

}  // namespace omv::bench
