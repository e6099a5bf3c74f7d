#pragma once
// Operating-system noise model.
//
// Four sources, mirroring the taxonomy of the OS-noise literature the paper
// builds on (ticks, daemons, kernel worker threads, interrupts):
//
//   * TimerTick  — strictly periodic per-HW-thread interrupt (CONFIG_HZ),
//                  cannot be moved; the unavoidable noise floor.
//   * Daemon     — node-wide Poisson wakeups of migratable system daemons.
//                  The (modelled) OS places each wakeup on a fully idle core
//                  when one exists (zero impact on the benchmark), else on an
//                  idle SMT sibling (small impact on the busy sibling via SMT
//                  resource sharing), else it preempts a random busy thread
//                  (full impact). This is the mechanism behind the paper's
//                  "spare 2 cores" observation and behind ST > MT stability.
//   * KWorker    — per-CPU bound kernel work (cannot migrate): bursty,
//                  preempts whoever runs on that CPU.
//   * IrqStorm   — rare heavy-tailed events pinned to low-numbered CPUs
//                  (interrupt landing zone).
//
// Additionally, a *run-scoped degradation* state is sampled per run with a
// small probability: for the duration of the run the daemon rate is
// multiplied, reproducing the occasional whole-run outlier of Table 2.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/prefix_index.hpp"
#include "core/rng.hpp"
#include "topo/topology.hpp"

namespace omv::snap {
class Capture;
class Restore;
}  // namespace omv::snap

namespace omv::sim {

/// Tuning knobs for all noise sources. Time unit: seconds.
struct NoiseConfig {
  // Timer tick.
  double tick_period = 0.004;     ///< 250 Hz.
  double tick_duration = 1.5e-6;  ///< ~1.5 us per tick.

  // Migratable daemons (node-wide).
  double daemon_rate = 25.0;          ///< wakeups per second per node.
  double daemon_mean = 150e-6;        ///< mean service time.
  double daemon_sigma_log = 0.8;      ///< lognormal shape.

  // Per-CPU kernel workers.
  double kworker_rate_per_cpu = 0.08;  ///< bursts per second per HW thread.
  double kworker_mean = 250e-6;
  double kworker_sigma_log = 0.7;

  // Rare heavy-tailed IRQ activity, pinned to the first `irq_cpus` CPUs.
  double irq_rate = 0.08;     ///< events per second per node.
  double irq_xm = 0.8e-3;     ///< Pareto scale (minimum duration).
  double irq_alpha = 1.7;     ///< Pareto shape (smaller = heavier tail).
  std::size_t irq_cpus = 4;

  // Run-scoped degradation (occasional noisy runs).
  double degrade_prob = 0.08;       ///< probability a run is degraded.
  double degrade_rate_mult = 12.0;  ///< daemon rate multiplier when degraded.

  /// Wake-affinity miss: even with idle CPUs available, the kernel places a
  /// waking daemon on its cache-hot previous CPU with probability
  /// daemon_miss_factor * (busy fraction) — which may be busy. This is what
  /// keeps nearly-full nodes (30/32, 254/256) noticeably noisier than
  /// half-empty ones even though spare CPUs exist.
  double daemon_miss_factor = 0.30;

  /// Impact fraction when a daemon is absorbed by an idle SMT sibling:
  /// the busy sibling loses only a share of core resources.
  double smt_absorb_factor = 0.15;

  /// Preset approximating Dardel's production-cluster noise profile.
  static NoiseConfig dardel();
  /// Preset approximating Vera's noise profile.
  static NoiseConfig vera();
  /// All sources disabled (for unit tests and ablations).
  static NoiseConfig quiet();
};

/// Deterministic per-run noise generator; all events are materialized lazily
/// up to a growing horizon, so queries are order-independent. Event streams
/// are stored columnar (SoA): per-CPU time and duration columns plus
/// compensated duration prefix sums — the canonical representation that both
/// the query kernels and snapshots consume directly.
class NoiseModel {
 public:
  /// Density-adaptive scan/index cutover (events per window): windows
  /// holding at most this many events are summed by the historical
  /// sequential scan (bit-identical to the pre-index accumulation and
  /// faster at the low densities where the prefix index used to regress);
  /// wider windows use the O(1) compensated prefix-sum range. The value
  /// sits at the measured crossover of BENCH_hotpath.json's density sweep
  /// and may only ever be raised: harness regimes are sparser than the
  /// cutover, so raising preserves stdout byte-identity while lowering
  /// would not.
  static constexpr std::size_t kScanCutover = 48;

  NoiseModel(const topo::Machine& machine, NoiseConfig cfg);

  /// Starts a new run: clears all events, reseeds, samples the run-scoped
  /// degradation state, and records which HW threads host benchmark threads
  /// (used for daemon placement).
  void begin_run(std::uint64_t run_seed, const topo::CpuSet& busy);

  /// Updates the busy set mid-run (e.g. unpinned placement changed). Only
  /// affects events generated after the call.
  void set_busy(const topo::CpuSet& busy);

  /// Total preemption seconds charged to HW thread `h` by events arriving in
  /// [t0, t1). Includes the analytic timer-tick term.
  ///
  /// Indexed: two binary searches locate the window in the per-CPU sorted
  /// event vector; narrow windows are summed by the pre-index sequential
  /// scan (bit-identical to the historical implementation), wide windows by
  /// the compensated duration prefix sums in O(1).
  double preemption_delay(std::size_t h, double t0, double t1);

  /// Materializes all noise sources up to time `t` (normally done lazily by
  /// preemption_delay; exposed so the differential oracle and the
  /// benchmark's layer probe can pin the event history before pure queries).
  void materialize_to(double t) { ensure_horizon(t); }

  /// Time up to which events have been materialized this run. The pure
  /// reference:: queries refuse to read past it (a query there would
  /// silently see an event-free future).
  [[nodiscard]] double materialized_horizon() const noexcept {
    return horizon_;
  }

  /// Per-HW-thread timer-tick phase offset in [0, tick_period) — part of
  /// the analytic tick term (exposed for the brute-force reference query).
  [[nodiscard]] double tick_phase(std::size_t h) const {
    return tick_phase_.at(h);
  }

  /// True when HW thread `h` currently hosts a benchmark thread.
  [[nodiscard]] bool busy(std::size_t h) const noexcept {
    return h < busy_.size() && busy_[h];
  }

  /// True when the current run is in the degraded state.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

  /// Materialized (non-tick) event arrival times on HW thread `h`, sorted
  /// ascending. Valid until the next materialization.
  [[nodiscard]] std::span<const double> event_times(std::size_t h) const {
    return times_.at(h);
  }

  /// Durations matching `event_times(h)` element for element.
  [[nodiscard]] std::span<const double> event_durations(std::size_t h) const {
    return durs_.at(h);
  }

  /// Number of per-CPU event streams (== machine HW threads).
  [[nodiscard]] std::size_t n_event_streams() const noexcept {
    return times_.size();
  }

  [[nodiscard]] const NoiseConfig& config() const noexcept { return cfg_; }

 private:
  friend class snap::Capture;
  friend class snap::Restore;

  void ensure_horizon(double t);
  void place_daemon(double t, double dur);
  /// Appends one raw (not yet indexed) event to the SoA columns of `h`.
  void append_event(std::size_t h, double t, double dur) {
    times_[h].push_back(t);
    durs_[h].push_back(dur);
  }
  /// Sorts freshly appended per-CPU column tails by time and extends the
  /// duration prefix sums. Only CPUs whose columns grew since the last call
  /// are touched. Outside ensure_horizon the columns are always fully
  /// indexed (`indexed_len_[h] == times_[h].size()`).
  void index_new_events();
  /// Rebuilds derived state (prefix sums, indexed lengths, absorb factors)
  /// after a snapshot restore repopulated the serialized fields.
  void after_restore(snap::Restore& v);

  /// Single field enumeration driving both snapshot directions.
  template <typename V>
  void snapshot_fields(V& v) {
    v.object("daemon_rng", daemon_rng_);
    v.object("kworker_rng", kworker_rng_);
    v.object("irq_rng", irq_rng_);
    v.object("placement_rng", placement_rng_);
    v.field("times", times_);
    v.field("durs", durs_);
    v.field("kworker_next", kworker_next_);
    v.field("daemon_next", daemon_next_);
    v.field("irq_next", irq_next_);
    v.field("horizon", horizon_);
    v.field("degraded", degraded_);
    v.field("busy", busy_);
    v.field("tick_phase", tick_phase_);
    if constexpr (V::is_restore) after_restore(v);
  }
  /// Event-sum part of a preemption window: `acc` enters holding the
  /// analytic tick term. Fused narrow scan (accumulates while counting, in
  /// the historical order) with a bail-out to the prefix range past
  /// kScanCutover events.
  double event_delay(std::size_t h, double t0, double t1, double acc);
  /// Recomputes the cached SMT-absorb factors from the busy set.
  void refresh_absorb_factors();

  const topo::Machine& machine_;
  NoiseConfig cfg_;
  Rng daemon_rng_;
  Rng kworker_rng_;
  Rng irq_rng_;
  Rng placement_rng_;
  /// Canonical columnar event storage: per-CPU arrival times and durations.
  /// The leading indexed_len_[h] entries are sorted by time; sources append
  /// raw tails which index_new_events() sorts in. Binary searches and scans
  /// touch one contiguous double stream instead of striding through
  /// 24-byte event records, and snapshots write these columns directly.
  std::vector<std::vector<double>> times_;
  std::vector<std::vector<double>> durs_;
  /// cum_[h] holds compensated prefix sums of durs_[h] (size == events + 1);
  /// kept in lockstep by index_new_events().
  std::vector<stats::PrefixSum> cum_;
  /// Per-HW-thread SMT-absorb factor (smt_absorb_factor when the sibling is
  /// idle, else 1.0), cached from the busy set so the per-query sibling
  /// lookup disappears from the hot path.
  std::vector<double> absorb_factor_;
  /// Number of leading events of times_[h]/durs_[h] already sorted+indexed.
  std::vector<std::size_t> indexed_len_;
  /// Scratch for index_new_events' joint (time, duration) tail sort.
  std::vector<std::pair<double, double>> sort_scratch_;
  /// Per-core HW-thread lists, cached from the (immutable) machine so the
  /// daemon-placement scan does not rebuild CpuSets per event.
  std::vector<std::vector<std::size_t>> core_threads_;
  /// Reusable scratch for place_daemon (busy CPUs / idle SMT siblings) —
  /// cleared per call, capacity retained across the run.
  std::vector<std::size_t> scratch_busy_;
  std::vector<std::size_t> scratch_siblings_;
  std::vector<double> kworker_next_;
  double daemon_next_ = 0.0;
  double irq_next_ = 0.0;
  double horizon_ = 0.0;
  bool degraded_ = false;
  std::vector<bool> busy_;
  std::vector<double> tick_phase_;
};

}  // namespace omv::sim
