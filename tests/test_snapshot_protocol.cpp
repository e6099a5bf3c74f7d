// Differential suite for checkpointed protocol execution: interrupting a
// protocol cell at a checkpoint and resuming it in fresh objects must be
// bit-identical to straight-line execution — same RunMatrix cells, same
// end-of-run hook side effects (frequency traces) — on every catalog
// preset, on the committed degenerate asymmetric scenario file, and
// across --jobs.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_suite/checkpoint.hpp"
#include "bench_suite/protocol.hpp"
#include "bench_suite/syncbench_sim.hpp"
#include "freqlog/logger.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "topo/proc_bind.hpp"

namespace omv::bench {
namespace {

core::Executor& one_worker() {
  static core::Executor executor(1);
  return executor;
}

core::Executor& two_workers() {
  static core::Executor executor(2);
  return executor;
}

/// Scratch directory for one test's snapshot files.
class SnapDir {
 public:
  SnapDir() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("omv-ckpt-" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this))))
               .string();
    std::filesystem::create_directories(dir_);
  }
  ~SnapDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

 private:
  std::string dir_;
};

ompsim::TeamConfig team_cfg(const topo::Machine& m) {
  ompsim::TeamConfig cfg;
  cfg.n_threads = std::min<std::size_t>(8, m.n_cores());
  cfg.places_spec = "threads";
  cfg.bind = topo::ProcBind::close;
  return cfg;
}

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "ckpt-diff";
  spec.runs = 3;
  spec.reps = 6;
  spec.warmup = 1;
  spec.seed = 1;
  return spec;
}

void expect_matrices_identical(const RunMatrix& got, const RunMatrix& want,
                               const std::string& context) {
  ASSERT_EQ(got.runs(), want.runs()) << context;
  for (std::size_t r = 0; r < got.runs(); ++r) {
    const auto& a = got.run(r);
    const auto& b = want.run(r);
    ASSERT_EQ(a.size(), b.size()) << context << " run " << r;
    for (std::size_t k = 0; k < a.size(); ++k) {
      // Exact double equality: the checkpoint path must be bit-identical,
      // not merely close.
      ASSERT_EQ(a[k], b[k])
          << context << " run " << r << " rep " << k << " diverged";
    }
  }
}

/// Runs the cell straight through, then checkpointed with a mid-protocol
/// CheckpointStop kill and a fresh-object resume, and demands bit-identical
/// matrices from all paths.
void expect_checkpoint_roundtrip(const scenario::ScenarioSpec& scn,
                                 const std::string& context) {
  const topo::Machine machine = scn.machine.build();
  const auto cfg = team_cfg(machine);
  const auto spec = small_spec();
  sim::Simulator base(machine, scn.sim);

  const auto make_bench = [cfg](sim::Simulator& sim) {
    return SimSyncBench(sim, cfg);
  };
  const auto rep = [](SimSyncBench& bench, ompsim::SimTeam& team) {
    return bench.rep_time_us(team, SyncConstruct::reduction);
  };

  const RunMatrix serial =
      run_protocol_sharded(base, cfg, spec, one_worker(), make_bench, rep);
  const RunMatrix sharded =
      run_protocol_sharded(base, cfg, spec, two_workers(), make_bench, rep);
  expect_matrices_identical(sharded, serial, context + " [jobs 1 vs 2]");

  SnapDir dir;
  snap::CheckpointPolicy pol;
  pol.path = dir.path("cell.snap");
  pol.every_reps = 2;
  pol.stamp.engine = "test-engine";
  pol.stamp.cell = "cell";
  // Kill the protocol at its third checkpoint write — that lands mid run 1
  // (after (r0,2), (r0,4), (r1,2)), so the resume exercises both the
  // completed-run replay and the mid-run continuation.
  snap::reset_checkpoint_writes();
  pol.stop_after = 3;
  bool stopped = false;
  try {
    (void)run_protocol_sharded(base, cfg, spec, one_worker(), make_bench, rep,
                               NoRunEndHook{}, &pol);
  } catch (const snap::CheckpointStop&) {
    stopped = true;
  }
  ASSERT_TRUE(stopped) << context << ": stop_after did not trip";
  ASSERT_TRUE(std::filesystem::exists(pol.path)) << context;

  snap::reset_checkpoint_writes();
  snap::CheckpointPolicy resume = pol;
  resume.stop_after = 0;
  resume.resume_from = pol.path;
  const RunMatrix resumed = run_protocol_sharded(
      base, cfg, spec, one_worker(), make_bench, rep, NoRunEndHook{}, &resume);
  expect_matrices_identical(resumed, serial, context + " [resume]");
  // The completed cell must clear its own checkpoint.
  EXPECT_FALSE(std::filesystem::exists(pol.path)) << context;
}

TEST(SnapshotProtocol, ResumeIsBitIdenticalOnEveryPreset) {
  for (const auto& scn : scenario::ScenarioRegistry::instance().all()) {
    expect_checkpoint_roundtrip(scn, scn.name);
  }
}

TEST(SnapshotProtocol, ResumeIsBitIdenticalOnDegenerateScenarioFile) {
  const auto path = std::filesystem::path(__FILE__).parent_path()
                        .parent_path() /
                    "scenarios" / "degenerate-pe.scenario";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  expect_checkpoint_roundtrip(scenario::load_file(path.string()),
                              "degenerate-pe");
}

TEST(SnapshotProtocol, HookReplayRebuildsIdenticalTraces) {
  // End-of-run hooks (the freq-panel trace sampler) must replay
  // bit-identically for runs completed before the checkpoint: the hook
  // draws from model RNG streams, so it runs from each run's restored
  // end-of-run state.
  const auto scn = scenario::ScenarioRegistry::instance().get("vera");
  const topo::Machine machine = scn.machine.build();
  const auto cfg = team_cfg(machine);
  const auto spec = small_spec();
  sim::Simulator base(machine, scn.sim);

  const auto make_bench = [cfg](sim::Simulator& sim) {
    return SimSyncBench(sim, cfg);
  };
  const auto rep = [](SimSyncBench& bench, ompsim::SimTeam& team) {
    return bench.rep_time_us(team, SyncConstruct::reduction);
  };
  const auto run_with_hook = [&](const snap::CheckpointPolicy* pol,
                                 std::vector<freqlog::FreqTrace>& traces) {
    traces.assign(spec.runs, freqlog::FreqTrace{});
    freqlog::FreqTrace* slots = traces.data();
    return run_protocol_sharded(
        base, cfg, spec, one_worker(), make_bench, rep,
        [slots](SimSyncBench&, ompsim::SimTeam& team, sim::Simulator& sim,
                const RunSlot& slot) {
          freqlog::SimFreqReader reader(sim.freq(), sim.machine().n_cores());
          slots[slot.run].append(
              freqlog::sample_sim(reader, 0.0, team.now(), 0.01));
        },
        pol);
  };

  std::vector<freqlog::FreqTrace> straight_traces;
  const RunMatrix straight = run_with_hook(nullptr, straight_traces);

  SnapDir dir;
  snap::CheckpointPolicy pol;
  pol.path = dir.path("cell.snap");
  pol.every_reps = 2;
  snap::reset_checkpoint_writes();
  pol.stop_after = 4;  // lands at (r1,4): run 0 complete, run 1 mid-flight
  std::vector<freqlog::FreqTrace> dropped;
  try {
    (void)run_with_hook(&pol, dropped);
  } catch (const snap::CheckpointStop&) {
  }
  snap::reset_checkpoint_writes();
  snap::CheckpointPolicy resume = pol;
  resume.stop_after = 0;
  resume.resume_from = pol.path;
  std::vector<freqlog::FreqTrace> resumed_traces;
  const RunMatrix resumed = run_with_hook(&resume, resumed_traces);

  expect_matrices_identical(resumed, straight, "hook replay");
  ASSERT_EQ(resumed_traces.size(), straight_traces.size());
  for (std::size_t r = 0; r < straight_traces.size(); ++r) {
    const auto& a = straight_traces[r].samples();
    const auto& b = resumed_traces[r].samples();
    ASSERT_EQ(a.size(), b.size()) << "trace " << r;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].time, b[i].time) << "trace " << r << " sample " << i;
      ASSERT_EQ(a[i].core, b[i].core) << "trace " << r << " sample " << i;
      ASSERT_EQ(a[i].ghz, b[i].ghz) << "trace " << r << " sample " << i;
    }
  }
}

TEST(SnapshotProtocol, ResumeRejectsChangedSpec) {
  const auto scn = scenario::ScenarioRegistry::instance().get("vera");
  const topo::Machine machine = scn.machine.build();
  const auto cfg = team_cfg(machine);
  sim::Simulator base(machine, scn.sim);
  const auto make_bench = [cfg](sim::Simulator& sim) {
    return SimSyncBench(sim, cfg);
  };
  const auto rep = [](SimSyncBench& bench, ompsim::SimTeam& team) {
    return bench.rep_time_us(team, SyncConstruct::barrier);
  };

  SnapDir dir;
  snap::CheckpointPolicy pol;
  pol.path = dir.path("cell.snap");
  pol.every_reps = 2;
  snap::reset_checkpoint_writes();
  pol.stop_after = 1;
  try {
    (void)run_protocol_sharded(base, cfg, small_spec(), one_worker(),
                               make_bench, rep, NoRunEndHook{}, &pol);
  } catch (const snap::CheckpointStop&) {
  }

  // Shrinking reps below the checkpoint cursor must fail loudly, not
  // silently mis-resume.
  ExperimentSpec shrunk = small_spec();
  shrunk.reps = 1;
  snap::CheckpointPolicy resume = pol;
  resume.stop_after = 0;
  resume.resume_from = pol.path;
  snap::reset_checkpoint_writes();
  EXPECT_THROW((void)run_protocol_sharded(base, cfg, shrunk, one_worker(),
                                          make_bench, rep, NoRunEndHook{},
                                          &resume),
               snap::SnapshotError);
}

}  // namespace
}  // namespace omv::bench
