#pragma once
// Simulator facade: owns the machine and all hardware/OS models, and
// provides the one execution primitive everything else is built from —
// "run `work` seconds of nominal compute on HW thread h starting at t".
//
// Elapsed wall time folds in, in order: the platform work-rate calibration,
// oversubscription time-sharing, SMT co-scheduling throughput, DVFS
// frequency integration, and OS-noise preemptions (whose windows are
// extended fixed-point style, since a preemption lengthens the window which
// may capture further preemptions).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "sim/cost_model.hpp"
#include "sim/freq.hpp"
#include "sim/memory.hpp"
#include "sim/noise.hpp"
#include "sim/os_placement.hpp"
#include "topo/topology.hpp"

namespace omv::snap {
class SnapshotWriter;
class SnapshotReader;
class Capture;
class Restore;
}  // namespace omv::snap

namespace omv::sim {

/// Full simulator configuration.
///
/// The per-platform factory bundles below are the paper platforms'
/// calibration source of truth; the scenario layer (src/scenario) wraps
/// them as the catalog presets "dardel"/"vera" and serializes every field
/// for user-authored scenarios, so new platforms are data, not new
/// factories.
struct SimConfig {
  NoiseConfig noise;
  FreqConfig freq;
  MemConfig mem;
  CostModel costs;
  /// Relative compute speed of each topo core class (indexed by
  /// topo::Machine::core_class): 1.0 = nominal, 0.6 = an E-core finishing
  /// the same work in 1/0.6 the time. Empty (the default, and the only
  /// sensible value for homogeneous machines) means every class runs at
  /// nominal speed; classes beyond the vector's size default to 1.0.
  /// Populated by the scenario layer from per-group `work_rate` keys.
  std::vector<double> class_work_rate;

  /// Dardel-calibrated bundle (pair with topo::Machine::dardel()).
  static SimConfig dardel();
  /// Vera-calibrated bundle (pair with topo::Machine::vera()).
  static SimConfig vera();
  /// Noise-free, frequency-flat bundle (unit tests, ablation baselines).
  static SimConfig ideal();
};

/// The multicore-system simulator.
class Simulator {
 public:
  Simulator(topo::Machine machine, SimConfig cfg);

  [[nodiscard]] const topo::Machine& machine() const noexcept {
    return machine_;
  }
  [[nodiscard]] const CostModel& costs() const noexcept { return cfg_.costs; }
  /// Full configuration bundle (lets callers clone per-worker simulators
  /// for sharded experiment execution).
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] NoiseModel& noise() noexcept { return *noise_; }
  [[nodiscard]] FreqModel& freq() noexcept { return *freq_; }
  [[nodiscard]] const MemoryModel& memory() const noexcept { return *mem_; }
  /// Per-run miscellaneous RNG stream (jitters).
  [[nodiscard]] Rng& rng() noexcept { return misc_rng_; }

  /// Resets the per-run state of all models (noise events, frequency
  /// episodes, run-scoped degradations) under `run_seed`. `busy` is the set
  /// of HW threads hosting benchmark threads (daemon placement).
  void begin_run(std::uint64_t run_seed, const topo::CpuSet& busy);

  /// Completion time of `work` nominal-fmax compute seconds started at `t0`
  /// on HW thread `h`. `share` >= 1 is the oversubscription factor;
  /// `smt_busy` marks both core siblings computing simultaneously.
  [[nodiscard]] double exec(std::size_t h, double t0, double work,
                            std::size_t share = 1, bool smt_busy = false);

  /// As exec(), but with an explicit throughput multiplier instead of the
  /// cost-model SMT factor (used by the memory model path where bandwidth,
  /// not core throughput, dominates).
  [[nodiscard]] double exec_scaled(std::size_t h, double t0, double work,
                                   double rate_factor);

  /// Advances a whole team's clocks through one lockstep compute segment in
  /// a single call: one RNG pass in thread order (the misc-RNG draw
  /// sequence of the per-thread loop, exactly), one ISA-dispatched
  /// effective-work kernel (per-lane mul/div — bit-identical across ISAs),
  /// then the per-thread clock advances in thread order (so lazy noise/
  /// frequency materialization is ordered exactly as the per-thread loop's
  /// and results are bit-identical to `for (i) clocks[i] = exec(...)` on
  /// every ISA). `pl` spans and `clocks` must share one length; `work` is
  /// either one nominal duration for all threads or one per thread.
  void exec_batch(const Placement& pl, double work, std::span<double> clocks);
  void exec_batch(const Placement& pl, std::span<const double> work,
                  std::span<double> clocks);

  /// Per-phase SMT throughput sample (mean smt_throughput with jitter).
  [[nodiscard]] double sample_smt_throughput();

  /// Serializes the full per-run state (machine geometry guards, misc RNG,
  /// noise and frequency models) into `w`.
  void capture(snap::SnapshotWriter& w);

  /// Restores state captured by `capture`. Throws snap::SnapshotError on
  /// any mismatch — including cross-machine geometry mismatches, checked
  /// before any field is decoded.
  void restore(snap::SnapshotReader& r);

 private:
  friend class snap::Capture;
  friend class snap::Restore;

  /// Single field enumeration driving both snapshot directions.
  template <typename V>
  void snapshot_fields(V& v) {
    v.object("misc_rng", misc_rng_);
    v.object("noise", *noise_);
    v.object("freq", *freq_);
  }

  /// Fixed-point clock advance shared by exec_scaled and exec_batch: the
  /// frequency-integrated elapsed time for `eff_work` is computed once and
  /// reused across iterations — its arguments never change inside the
  /// loop, and re-running it cannot return a different value (episode
  /// arrivals are monotone, so the first call materialized everything its
  /// window reads), making the cache bit-identical to the historical
  /// per-iteration recomputation.
  [[nodiscard]] double advance(std::size_t h, std::size_t core, double t0,
                               double eff_work);
  void exec_batch_impl(const Placement& pl, const double* work,
                       std::span<double> clocks);

  topo::Machine machine_;
  SimConfig cfg_;
  /// Per-core compute rate resolved from cfg_.class_work_rate (empty when
  /// every class runs at nominal speed — the homogeneous fast path).
  std::vector<double> core_rate_;
  std::unique_ptr<NoiseModel> noise_;
  std::unique_ptr<FreqModel> freq_;
  std::unique_ptr<MemoryModel> mem_;
  Rng misc_rng_;
  /// exec_batch scratch (rates, effective work, per-thread core ids and
  /// core rates) — capacity retained across phases.
  std::vector<double> batch_rate_;
  std::vector<double> batch_eff_;
  std::vector<double> batch_work_;
  std::vector<double> batch_core_rate_;
  std::vector<std::size_t> batch_core_;
};

}  // namespace omv::sim
