#include "sim/os_placement.hpp"

#include <algorithm>
#include <stdexcept>

namespace omv::sim {

PlacementModel::PlacementModel(const topo::Machine& machine,
                               std::vector<topo::CpuSet> affinities,
                               bool pinned, PlacementConfig cfg,
                               std::uint64_t seed)
    : machine_(&machine),
      affinities_(std::move(affinities)),
      pinned_(pinned),
      cfg_(cfg),
      rng_(Rng(seed).fork(0x05)) {
  if (affinities_.empty()) {
    throw std::invalid_argument("PlacementModel: no threads");
  }
  initial_place();
}

void PlacementModel::initial_place() {
  const std::size_t n = affinities_.size();
  state_.hw.assign(n, 0);
  state_.migrated.assign(n, false);

  // Occupancy per HW thread, to spread threads whose sets overlap.
  std::vector<std::size_t> occupancy(machine_->n_threads(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const topo::CpuSet& options = affinities_[i];
    if (options.empty()) {
      throw std::invalid_argument("PlacementModel: empty affinity set");
    }
    // Least-occupied member of the set; prefer smt_index 0 on ties (the OS
    // fills physical cores before hyperthreads).
    std::size_t best = options.first();
    for (std::size_t cand : options) {
      const auto& tb = machine_->thread(best);
      const auto& tc = machine_->thread(cand);
      if (occupancy[cand] < occupancy[best] ||
          (occupancy[cand] == occupancy[best] &&
           tc.smt_index < tb.smt_index)) {
        best = cand;
      }
    }
    state_.hw[i] = best;
    ++occupancy[best];
  }
  // First-touch: data lives where the thread first ran.
  state_.data_domain.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    state_.data_domain[i] = machine_->thread(state_.hw[i]).numa;
  }
  recompute_derived();
}

void PlacementModel::recompute_derived() {
  const std::size_t n = state_.hw.size();
  std::vector<std::size_t> per_hw(machine_->n_threads(), 0);
  std::vector<std::size_t> per_core(machine_->n_cores(), 0);
  std::vector<bool> numa_used(machine_->n_numa(), false);
  std::vector<bool> socket_used(machine_->n_sockets(), false);
  for (std::size_t h : state_.hw) {
    const auto& t = machine_->thread(h);
    ++per_hw[h];
    ++per_core[t.core];
    numa_used[t.numa] = true;
    socket_used[t.socket] = true;
  }
  state_.numa_span = static_cast<std::size_t>(
      std::count(numa_used.begin(), numa_used.end(), true));
  state_.socket_span = static_cast<std::size_t>(
      std::count(socket_used.begin(), socket_used.end(), true));
  state_.share.assign(n, 1);
  state_.smt_coscheduled.assign(n, false);
  state_.any_smt = false;
  state_.any_oversub = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t core = machine_->thread(state_.hw[i]).core;
    state_.share[i] = std::max<std::size_t>(1, per_hw[state_.hw[i]]);
    // Per-core SMT width, not the machine average: on a mixed-SMT machine
    // the historical smt_per_core() floor average reported 1 and this flag
    // never fired, even for threads genuinely co-scheduled on an SMT core.
    state_.smt_coscheduled[i] =
        per_core[core] > 1 && machine_->smt_of_core(core) > 1;
    state_.any_smt = state_.any_smt || state_.smt_coscheduled[i];
    state_.any_oversub = state_.any_oversub || state_.share[i] > 1;
  }
}

const Placement& PlacementModel::next_rep() {
  if (first_) {
    first_ = false;
    return state_;
  }
  std::fill(state_.migrated.begin(), state_.migrated.end(), false);
  if (pinned_) return state_;

  bool changed = false;
  // Balancer rescue: the load balancer eventually notices an oversubscribed
  // CPU and moves one of its threads to an idle one. One rescue per rep at
  // most — real balancing is rate-limited.
  for (std::size_t i = 0; i < state_.hw.size(); ++i) {
    if (state_.share[i] > 1 && rng_.bernoulli(cfg_.rescue_prob)) {
      std::vector<std::size_t> load(machine_->n_threads(), 0);
      for (std::size_t h : state_.hw) ++load[h];
      std::size_t dest = 0;
      for (std::size_t h = 1; h < load.size(); ++h) {
        if (load[h] < load[dest]) dest = h;
      }
      if (load[dest] == 0) {
        state_.hw[i] = dest;
        state_.migrated[i] = true;
        changed = true;
      }
      break;
    }
  }
  for (std::size_t i = 0; i < state_.hw.size(); ++i) {
    if (!rng_.bernoulli(cfg_.migrate_prob)) continue;
    std::size_t dest;
    if (rng_.bernoulli(cfg_.bad_migration_prob)) {
      // Misguided balance decision: any CPU, may stack threads.
      dest = rng_.next_below(machine_->n_threads());
    } else {
      // Sensible decision: the least-loaded CPU (first such).
      std::vector<std::size_t> load(machine_->n_threads(), 0);
      for (std::size_t h : state_.hw) ++load[h];
      dest = 0;
      for (std::size_t h = 1; h < load.size(); ++h) {
        if (load[h] < load[dest]) dest = h;
      }
    }
    if (dest != state_.hw[i]) {
      state_.hw[i] = dest;
      state_.migrated[i] = true;
      changed = true;
      // Data stays in the first-touch domain — accesses may now be remote.
    }
  }
  if (changed) recompute_derived();
  return state_;
}

topo::CpuSet PlacementModel::busy_set() const {
  topo::CpuSet s;
  for (std::size_t h : state_.hw) s.add(h);
  return s;
}

}  // namespace omv::sim
