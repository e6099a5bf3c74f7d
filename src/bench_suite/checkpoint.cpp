#include "bench_suite/checkpoint.hpp"

#include <filesystem>

namespace omv::bench {

std::string capture_run_state(ompsim::SimTeam& team) {
  snap::SnapshotWriter w;
  team.capture(w);
  return w.take();
}

void restore_run_state(const std::string& blob, const std::string& origin,
                       ompsim::SimTeam& team) {
  snap::SnapshotReader r(blob, origin);
  team.restore(r);
  r.expect_end();
}

std::optional<LoadedCheckpoint> load_cell_checkpoint(
    const snap::CheckpointPolicy& pol) {
  if (pol.resume_from.empty()) return std::nullopt;
  const std::string bytes = snap::load_snapshot_file(pol.resume_from);
  snap::SnapshotReader r(bytes, pol.resume_from);
  LoadedCheckpoint out;
  out.stamp = snap::read_stamp(r, &pol.stamp);
  // Appended record by record: a forged count runs out of bytes, never
  // sizes an allocation.
  const std::uint64_t completed = r.field_u64("completed_runs");
  for (std::uint64_t i = 0; i < completed; ++i) {
    const std::string p = "run" + std::to_string(i);
    out.done_times.push_back(r.field_vec_f64(p + ".times"));
    out.done_states.push_back(r.field_bytes(p + ".state"));
  }
  out.partial = r.field_vec_f64("partial");
  out.current_state = r.field_bytes("current");
  r.expect_end();
  return out;
}

void write_cell_checkpoint(const snap::CheckpointPolicy& pol,
                           std::uint64_t run, std::uint64_t rep,
                           const std::vector<std::vector<double>>& done_times,
                           const std::vector<std::string>& done_states,
                           const std::vector<double>& partial,
                           const std::string& current_state) {
  snap::SnapshotWriter w;
  snap::SnapshotStamp stamp = pol.stamp;
  stamp.run = run;
  stamp.rep = rep;
  snap::write_stamp(w, stamp);
  w.field_u64("completed_runs", done_times.size());
  for (std::size_t i = 0; i < done_times.size(); ++i) {
    const std::string p = "run" + std::to_string(i);
    w.field_vec_f64(p + ".times", done_times[i]);
    w.field_bytes(p + ".state", done_states[i]);
  }
  w.field_vec_f64("partial", partial);
  w.field_bytes("current", current_state);
  snap::save_snapshot_file(pol.path, w.take());
  snap::note_checkpoint_write();
  if (pol.stop_after > 0 && snap::checkpoint_writes() >= pol.stop_after) {
    throw snap::CheckpointStop(
        "checkpoint stop: wrote checkpoint " + std::to_string(run) + ":" +
        std::to_string(rep) + " to " + pol.path +
        " and the configured stop-after limit was reached");
  }
}

void clear_cell_checkpoint(const snap::CheckpointPolicy& pol) {
  std::error_code ec;
  std::filesystem::remove(pol.path, ec);
}

}  // namespace omv::bench
