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
//
// The exec chain is defined here, in the header: it runs once per simulated
// grab (about 159M times in the paper campaign), and in the common case the
// models' inline exits (a quiet noise window, an uncapped flat frequency
// window) answer it with less work than a call per layer would cost. The
// full model queries stay out of line.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "sim/cost_model.hpp"
#include "sim/freq.hpp"
#include "sim/memory.hpp"
#include "sim/noise.hpp"
#include "topo/topology.hpp"

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
                            std::size_t share = 1, bool smt_busy = false) {
    double rate = 1.0;
    if (share > 1) rate /= static_cast<double>(share);
    if (smt_busy) rate *= sample_smt_throughput();
    return exec_scaled(h, t0, work, rate);
  }

  /// As exec(), but with an explicit throughput multiplier instead of the
  /// cost-model SMT factor (used by the memory model path where bandwidth,
  /// not core throughput, dominates). Throws std::out_of_range for an `h`
  /// outside the machine.
  [[nodiscard]] double exec_scaled(std::size_t h, double t0, double work,
                                   double rate_factor) {
    if (work <= 0.0) return t0;
    rate_factor = std::max(rate_factor, 1e-6);
    const std::size_t core = machine_.thread(h).core;
    double eff_work = work * cfg_.costs.work_scale / rate_factor;
    // Per-class calibration: slower classes (E-cores) stretch the nominal
    // work. The empty-vector fast path leaves the homogeneous arithmetic
    // bit-identical to the historical expression.
    if (!core_rate_.empty()) eff_work /= core_rate_[core];
    // The frequency-integrated time is computed once for the whole noise
    // fixed point: its arguments never change there, and re-running it
    // cannot return a different value (episode arrivals are monotone, so
    // the first call materialized everything its window reads), which
    // makes it bit-identical to the historical per-iteration
    // recomputation.
    return with_preemptions(h, t0,
                            freq_->elapsed_for_work(core, t0, eff_work));
  }

  /// Completion time of a phase of `d` undisturbed seconds started at `t0`
  /// on HW thread `h`, once OS-noise preemptions are folded in.
  /// Preemptions extend the window and a longer window may catch more, so
  /// the window is iterated to a fixed point (fast: noise density is far
  /// below 1).
  [[nodiscard]] double with_preemptions(std::size_t h, double t0, double d) {
    const double base_d = d;
    for (int iter = 0; iter < 6; ++iter) {
      const double delay = noise_->preemption_delay(h, t0, t0 + d);
      const double nd = base_d + delay;
      if (nd <= d + 1e-12) {
        d = nd;
        break;
      }
      d = nd;
    }
    return t0 + d;
  }

  /// Per-phase SMT throughput sample (mean smt_throughput with jitter).
  [[nodiscard]] double sample_smt_throughput() {
    const double v =
        misc_rng_.normal(cfg_.costs.smt_throughput, cfg_.costs.smt_jitter);
    return std::clamp(v, 0.35, 0.95);
  }

 private:
  topo::Machine machine_;
  SimConfig cfg_;
  /// Per-core compute rate resolved from cfg_.class_work_rate (empty when
  /// every class runs at nominal speed — the homogeneous fast path).
  std::vector<double> core_rate_;
  std::unique_ptr<NoiseModel> noise_;
  std::unique_ptr<FreqModel> freq_;
  std::unique_ptr<MemoryModel> mem_;
  Rng misc_rng_;
};

}  // namespace omv::sim
