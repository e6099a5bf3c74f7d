#include "omp_model/team.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/snapshot.hpp"

namespace omv::ompsim {
namespace {

sim::PlacementModel make_placement(sim::Simulator& simulator,
                                   const TeamConfig& cfg,
                                   std::uint64_t seed) {
  const auto& machine = simulator.machine();
  if (cfg.n_threads == 0) {
    throw std::invalid_argument("SimTeam: zero threads");
  }
  if (cfg.n_threads > machine.n_threads()) {
    throw std::invalid_argument(
        "SimTeam: more OpenMP threads than hardware threads");
  }
  const std::string spec =
      cfg.places_spec.empty() ? std::string("threads") : cfg.places_spec;
  const auto places = topo::parse_places(spec, machine);
  auto affinities = topo::thread_affinities(cfg.n_threads, places, cfg.bind,
                                            machine);
  const bool pinned = cfg.bind != topo::ProcBind::none;
  return sim::PlacementModel(machine, std::move(affinities), pinned,
                             cfg.placement, seed);
}

}  // namespace

SimTeam::SimTeam(sim::Simulator& simulator, TeamConfig cfg, std::uint64_t seed)
    : sim_(simulator),
      cfg_(std::move(cfg)),
      seed_(seed),
      placement_model_(make_placement(simulator, cfg_, seed)),
      clocks_(cfg_.n_threads, 0.0) {}

void SimTeam::rebuild_placement(std::uint64_t seed) {
  placement_model_ = make_placement(sim_, cfg_, seed);
}

void SimTeam::begin_run(std::uint64_t run_seed) {
  rebuild_placement(run_seed);
  sim_.begin_run(run_seed, placement_model_.busy_set());
  sim_.freq().set_activity_domains(numa_span());
  sim_.freq().set_load_fraction(
      static_cast<double>(placement_model_.busy_set().count()) /
      static_cast<double>(sim_.machine().n_threads()));
  std::fill(clocks_.begin(), clocks_.end(), 0.0);
}

void SimTeam::begin_rep() {
  const auto& pl = placement_model_.next_rep();
  sim_.noise().set_busy(placement_model_.busy_set());

  const double t = now() + cfg_.inter_rep_gap;
  align_clocks(t);
  for (std::size_t i = 0; i < clocks_.size(); ++i) {
    if (pl.migrated[i]) clocks_[i] += sim_.costs().migration_cost;
  }
}

double SimTeam::now() const {
  return *std::max_element(clocks_.begin(), clocks_.end());
}

void SimTeam::align_clocks(double t) {
  std::fill(clocks_.begin(), clocks_.end(), t);
}

void SimTeam::set_clocks(std::span<const double> t) {
  if (t.size() != clocks_.size()) {
    throw std::invalid_argument("SimTeam::set_clocks: size mismatch");
  }
  std::copy(t.begin(), t.end(), clocks_.begin());
}

std::size_t SimTeam::count_span(std::size_t (topo::HwThread::*domain)) const {
  // barrier_cost() runs once per synchronization episode — use a reusable
  // scratch bitmap (epoch-tagged so it never needs clearing) instead of
  // allocating a vector<bool> per call.
  const auto& pl = placement_model_.current();
  const std::size_t n_domains =
      std::max(sim_.machine().n_numa(), sim_.machine().n_sockets());
  if (span_scratch_.size() < n_domains) span_scratch_.resize(n_domains, 0);
  if (++span_epoch_ == 0) {  // epoch wrap: stale tags could alias — reset
    std::fill(span_scratch_.begin(), span_scratch_.end(), 0);
    span_epoch_ = 1;
  }
  std::size_t n = 0;
  for (std::size_t h : pl.hw) {
    const std::size_t d = sim_.machine().thread(h).*domain;
    if (span_scratch_[d] != span_epoch_) {
      span_scratch_[d] = span_epoch_;
      ++n;
    }
  }
  return n;
}

std::size_t SimTeam::numa_span() const {
  return count_span(&topo::HwThread::numa);
}

std::size_t SimTeam::socket_span() const {
  return count_span(&topo::HwThread::socket);
}

double SimTeam::barrier_cost() const {
  const auto& c = sim_.costs();
  const std::size_t t = size();
  double cost = 0.0;
  switch (cfg_.barrier_alg) {
    case BarrierAlgorithm::tree:
      cost = c.barrier_base +
             c.barrier_per_level * static_cast<double>(sim::ceil_log2(t));
      break;
    case BarrierAlgorithm::centralized:
      cost = c.barrier_base +
             c.barrier_central_per_thread * static_cast<double>(t);
      break;
  }
  cost += c.barrier_numa_step * static_cast<double>(numa_span() - 1);
  cost += c.barrier_socket_step * static_cast<double>(socket_span() - 1);
  return cost;
}

bool SimTeam::any_smt_coscheduled() const {
  const auto& pl = placement_model_.current();
  for (bool b : pl.smt_coscheduled) {
    if (b) return true;
  }
  return false;
}

void SimTeam::sync_episode(double base_cost, std::size_t repeats) {
  const auto& c = sim_.costs();
  const auto& pl = placement_model_.current();
  const double r = static_cast<double>(std::max<std::size_t>(repeats, 1));

  // Oversubscribed threads wait out scheduler timeslices before the episode
  // completes — once per episode instance. Sample a bounded number of draws
  // and scale, so batching many instances stays cheap but keeps the tail.
  const double mu_log =
      std::log(std::max(c.oversub_stall_mean, 1e-9)) -
      0.5 * c.oversub_stall_sigma * c.oversub_stall_sigma;
  for (std::size_t i = 0; i < clocks_.size(); ++i) {
    if (pl.share[i] <= 1) continue;
    const std::size_t draws =
        std::min<std::size_t>(std::max<std::size_t>(repeats, 1), 8);
    double stall = 0.0;
    for (std::size_t k = 0; k < draws; ++k) {
      stall += sim_.rng().lognormal(mu_log, c.oversub_stall_sigma);
    }
    clocks_[i] += stall * (r / static_cast<double>(draws));
  }

  // SMT co-scheduled teams synchronize slower and with high variance.
  double cost = base_cost;
  if (any_smt_coscheduled()) {
    const double extra =
        std::abs(sim_.rng().normal(c.smt_sync_overhead, c.smt_sync_jitter));
    cost *= 1.0 + extra;
  }
  align_clocks(now() + cost * r);
}

void SimTeam::barrier() { sync_episode(barrier_cost(), 1); }

double SimTeam::fork_cost() const {
  const auto& c = sim_.costs();
  return c.fork_base + c.fork_per_thread * static_cast<double>(size());
}

void SimTeam::fork() {
  // The primary thread wakes the team from the team's current frontier.
  align_clocks(now() + fork_cost());
}

void SimTeam::join() { barrier(); }

double SimTeam::exec_at(std::size_t i, double t, double work) {
  const auto& pl = placement_model_.current();
  return sim_.exec(pl.hw[i], t, work, pl.share[i], pl.smt_coscheduled[i]);
}

void SimTeam::compute_one(std::size_t i, double work) {
  clocks_[i] = exec_at(i, clocks_[i], work);
}

void SimTeam::compute(double work) {
  sim_.exec_batch(placement_model_.current(), work, clocks_);
}

void SimTeam::compute(std::span<const double> work) {
  if (work.size() != clocks_.size()) {
    throw std::invalid_argument("SimTeam::compute: work span size mismatch");
  }
  sim_.exec_batch(placement_model_.current(), work, clocks_);
}

void SimTeam::compute_loop(double work) {
  for (std::size_t i = 0; i < clocks_.size(); ++i) compute_one(i, work);
}

void SimTeam::compute_loop(std::span<const double> work) {
  if (work.size() != clocks_.size()) {
    throw std::invalid_argument(
        "SimTeam::compute_loop: work span size mismatch");
  }
  for (std::size_t i = 0; i < clocks_.size(); ++i) compute_one(i, work[i]);
}

void SimTeam::capture(snap::SnapshotWriter& w) {
  sim_.capture(w);
  w.field_u64("team.n_threads", clocks_.size());
  snap::Capture v(w);
  v.object("team", *this);
}

void SimTeam::restore(snap::SnapshotReader& r) {
  sim_.restore(r);
  r.expect_u64("team.n_threads", clocks_.size(), "team size");
  snap::Restore v(r);
  v.object("team", *this);
  // The placement vectors are restored verbatim; their lengths must match
  // the team the snapshot was taken from.
  const auto& pl = placement_model_.current();
  if (pl.hw.size() != clocks_.size() || pl.share.size() != clocks_.size() ||
      pl.smt_coscheduled.size() != clocks_.size() ||
      pl.migrated.size() != clocks_.size() ||
      pl.data_domain.size() != clocks_.size()) {
    r.fail_here(r.offset(), "restored placement does not match team size");
  }
}

}  // namespace omv::ompsim
