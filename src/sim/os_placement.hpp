#pragma once
// OS thread-placement model.
//
// Pinned teams have a fixed thread->HW-thread map derived from the
// OMP_PLACES/OMP_PROC_BIND assignment. Unpinned teams (the paper's "before
// thread-pinning" configuration) are placed by a modelled OS scheduler:
// an initially balanced placement that is perturbed between repetitions by
// load-balancer migrations. Migrations carry a cache/TLB refill cost, may
// move a thread's execution away from its first-touch NUMA data, and can
// transiently stack two threads on one HW thread (oversubscription) while
// leaving other cores idle — the mechanism behind the paper's Fig. 4
// "orders of magnitude" syncbench outliers.

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "topo/places.hpp"
#include "topo/proc_bind.hpp"
#include "topo/topology.hpp"

namespace omv::snap {
class Capture;
class Restore;
}  // namespace omv::snap

namespace omv::sim {

/// Placement policy knobs for the unpinned case.
struct PlacementConfig {
  double migrate_prob = 0.02;  ///< per thread per repetition.
  /// Probability a migration is a "bad" one (to a random CPU, possibly
  /// stacking threads) rather than to an idle CPU; real balancers are mostly
  /// right, occasionally wrong.
  double bad_migration_prob = 0.20;
  /// Per-rep probability that the balancer rescues one thread off an
  /// oversubscribed CPU onto an idle one.
  double rescue_prob = 0.5;
};

/// Where each OpenMP thread currently is, plus per-rep derived state.
struct Placement {
  std::vector<std::size_t> hw;           ///< HW thread per OpenMP thread.
  std::vector<std::size_t> data_domain;  ///< first-touch NUMA domain.
  std::vector<bool> migrated;            ///< migrated since last rep.
  /// Oversubscription share: number of team threads on the same HW thread
  /// (>= 1). Compute time multiplies by this factor.
  std::vector<std::size_t> share;
  /// True when both SMT siblings of the thread's core host team threads.
  std::vector<bool> smt_coscheduled;
};

/// Maintains team placement across repetitions.
class PlacementModel {
 public:
  /// Pinned constructor: affinities[i] is the CpuSet thread i may use
  /// (from topo::thread_affinities); each thread sits on a deterministic
  /// member of its set, distributing threads that share a place.
  PlacementModel(const topo::Machine& machine,
                 std::vector<topo::CpuSet> affinities, bool pinned,
                 PlacementConfig cfg, std::uint64_t seed);

  /// Placement for the next repetition (applies migrations when unpinned).
  const Placement& next_rep();

  /// Current placement without advancing.
  [[nodiscard]] const Placement& current() const noexcept { return state_; }

  /// Set of busy HW threads (for the noise model's daemon placement).
  [[nodiscard]] topo::CpuSet busy_set() const;

  [[nodiscard]] bool pinned() const noexcept { return pinned_; }

 private:
  friend class snap::Capture;
  friend class snap::Restore;

  /// Single field enumeration driving both snapshot directions. The
  /// placement vectors are the per-rep mutable state; the affinity sets and
  /// policy knobs are construction-time configuration and re-derived by the
  /// owner.
  template <typename V>
  void snapshot_fields(V& v) {
    v.object("rng", rng_);
    v.field("hw", state_.hw);
    v.field("data_domain", state_.data_domain);
    v.field("migrated", state_.migrated);
    v.field("share", state_.share);
    v.field("smt_coscheduled", state_.smt_coscheduled);
    v.field("first", first_);
  }

  void recompute_derived();
  void initial_place();

  // Pointer (not reference) so PlacementModel stays assignable: SimTeam
  // rebuilds its placement each run via assignment.
  const topo::Machine* machine_;
  std::vector<topo::CpuSet> affinities_;
  bool pinned_;
  PlacementConfig cfg_;
  Rng rng_;
  Placement state_;
  bool first_ = true;
};

}  // namespace omv::sim
