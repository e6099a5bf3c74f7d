#pragma once
// SimTeam — a simulated OpenMP thread team executing on the multicore
// simulator in lockstep phases.
//
// The team owns one clock per OpenMP thread. Construct methods advance the
// clocks through compute segments (Simulator::exec folds in frequency,
// SMT, oversubscription and OS-noise effects) and synchronization points
// (barriers advance every clock to the slowest arrival plus the barrier
// cost — the noise-amplification mechanism at the heart of the paper).
//
// Thread placement comes from the topo layer's OMP_PLACES / OMP_PROC_BIND
// implementation; unpinned teams are re-placed by the OS model between
// repetitions.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/os_placement.hpp"
#include "sim/simulator.hpp"
#include "topo/places.hpp"
#include "topo/proc_bind.hpp"

namespace omv::ompsim {

/// Barrier algorithm — an ablatable design choice.
enum class BarrierAlgorithm {
  tree,         ///< log-depth gather/release (production runtimes).
  centralized,  ///< single counter, linear contention.
};

/// Team configuration.
struct TeamConfig {
  std::size_t n_threads = 4;
  /// OMP_PLACES specification, parsed against the simulator's machine.
  /// Empty string = "threads".
  std::string places_spec = "threads";
  topo::ProcBind bind = topo::ProcBind::close;
  BarrierAlgorithm barrier_alg = BarrierAlgorithm::tree;
  sim::PlacementConfig placement;  ///< unpinned OS behaviour.
  /// Wall-clock gap between repetitions (benchmark setup, statistics,
  /// output — everything outside the timed region; EPCC spends far more
  /// wall time around a 1 ms timed section than inside it). Simulated time
  /// advances by this much at every begin_rep, which is what exposes short
  /// timed regions to second-scale background processes such as frequency
  /// dip episodes (the paper's Figs. 6/7 couple the two via wall time).
  double inter_rep_gap = 50e-3;
};

/// A simulated OpenMP team.
class SimTeam {
 public:
  /// Builds a team on `simulator`. Throws if the config asks for more
  /// threads than the machine has HW threads (matching OMP_NUM_THREADS
  /// oversubscription being out of the paper's scope).
  SimTeam(sim::Simulator& simulator, TeamConfig cfg, std::uint64_t seed = 1);

  /// Starts a fresh run: re-seeds simulator models, resets placement and
  /// clocks to zero.
  void begin_run(std::uint64_t run_seed);

  /// Starts a repetition: applies OS migrations (unpinned), charges
  /// migration penalties, refreshes the noise model's busy set, and aligns
  /// all clocks (threads wait on the team before a timed region).
  void begin_rep();

  // --- Phase primitives -------------------------------------------------

  /// Parallel-region fork: primary wakes the team (cost grows with size);
  /// all clocks start at the fork completion.
  void fork();

  /// Parallel-region join: implicit barrier.
  void join();

  /// Every thread computes `work` nominal seconds (heterogeneity via span):
  /// one Simulator::exec per thread, in thread order. Threads with no work
  /// still take their exec call, so the SMT-throughput draws stay in
  /// sequence.
  void compute(double work);
  void compute(std::span<const double> work);
  void compute(std::initializer_list<double> work) {
    compute(std::span<const double>(work.begin(), work.size()));
  }

  /// Explicit barrier.
  void barrier();

  /// Advances thread `i`'s clock through `work` nominal compute seconds.
  void compute_one(std::size_t i, double work);

  // --- Clock access ------------------------------------------------------

  [[nodiscard]] std::size_t size() const noexcept { return clocks_.size(); }
  [[nodiscard]] double clock(std::size_t i) const { return clocks_.at(i); }
  [[nodiscard]] std::span<const double> clocks() const noexcept {
    return clocks_;
  }
  /// Latest clock (the team's frontier).
  [[nodiscard]] double now() const;
  /// Sets every clock to `t` (used by the EPCC timed-section boundaries).
  void align_clocks(double t);

  /// Overwrites all clocks (used by the worksharing schedulers, which
  /// advance thread clocks through exec_at themselves).
  void set_clocks(std::span<const double> t);

  /// Current placement (HW thread, share, SMT state per thread).
  [[nodiscard]] const sim::Placement& placement() const {
    return placement_model_.current();
  }

  /// Deterministic barrier cost for the current team span (exposed for
  /// tests/ablation; excludes SMT sync jitter and oversubscription stalls).
  [[nodiscard]] double barrier_cost() const;

  /// Fork cost for the current team size (deterministic part).
  [[nodiscard]] double fork_cost() const;

  /// Synchronization episode: charges oversubscribed threads their
  /// scheduler stalls, applies the SMT sync-overhead factor to `base_cost`,
  /// then aligns all clocks to max + cost. `repeats` batches that many
  /// consecutive episodes (costs and stalls scale accordingly).
  void sync_episode(double base_cost, std::size_t repeats = 1);

  /// True when any team thread is SMT co-scheduled with another.
  [[nodiscard]] bool any_smt_coscheduled() const;

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const TeamConfig& config() const noexcept { return cfg_; }

  /// Executes `work` on thread i starting at time t, returning completion
  /// (applies this thread's share/SMT state). Exposed for the worksharing
  /// schedulers.
  [[nodiscard]] double exec_at(std::size_t i, double t, double work);

 private:
  void rebuild_placement(std::uint64_t seed);
  /// Distinct values of the given HwThread domain field across the team's
  /// current placement (shared engine of numa_span / socket_span).
  [[nodiscard]] std::size_t count_span(
      std::size_t(topo::HwThread::*domain)) const;
  [[nodiscard]] std::size_t numa_span() const;
  [[nodiscard]] std::size_t socket_span() const;

  sim::Simulator& sim_;
  TeamConfig cfg_;
  std::uint64_t seed_;
  sim::PlacementModel placement_model_;
  std::vector<double> clocks_;
  /// Epoch-tagged scratch for count_span (mutable: spans are logically
  /// const queries; the scratch is pure memoization space).
  mutable std::vector<std::uint32_t> span_scratch_;
  mutable std::uint32_t span_epoch_ = 0;
};

}  // namespace omv::ompsim
