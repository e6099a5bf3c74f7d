#include "sim/noise.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>

namespace omv::sim {

NoiseConfig NoiseConfig::dardel() {
  NoiseConfig c;
  // Cray OS image: moderately quiet, but 128 cores × per-CPU sources add up.
  c.daemon_rate = 30.0;
  c.kworker_rate_per_cpu = 0.06;
  // Light IRQ tail: the paper's Table 2 shows the 4-thread column (whose
  // threads sit on the IRQ landing CPUs) within ~0.1%.
  c.irq_rate = 0.05;
  c.irq_xm = 0.5e-3;
  c.irq_alpha = 2.2;
  c.degrade_prob = 0.08;
  return c;
}

NoiseConfig NoiseConfig::vera() {
  NoiseConfig c;
  // Rocky Linux with standard services; fewer CPUs to absorb them.
  c.daemon_rate = 20.0;
  c.kworker_rate_per_cpu = 0.10;
  c.irq_rate = 0.06;
  c.degrade_prob = 0.06;
  return c;
}

NoiseConfig NoiseConfig::quiet() {
  NoiseConfig c;
  c.tick_duration = 0.0;
  c.daemon_rate = 0.0;
  c.kworker_rate_per_cpu = 0.0;
  c.irq_rate = 0.0;
  c.degrade_prob = 0.0;
  return c;
}

NoiseModel::NoiseModel(const topo::Machine& machine, NoiseConfig cfg)
    : machine_(machine), cfg_(cfg) {
  times_.resize(machine.n_threads());
  durs_.resize(machine.n_threads());
  sorted_len_.resize(machine.n_threads(), 0);
  absorb_factor_.resize(machine.n_threads(), 1.0);
  core_threads_.resize(machine.n_cores());
  for (std::size_t core = 0; core < machine.n_cores(); ++core) {
    for (std::size_t h : machine.core_threads(core)) {
      core_threads_[core].push_back(h);
    }
  }
  kworker_next_.resize(machine.n_threads(), 0.0);
  busy_.resize(machine.n_threads(), false);
  tick_phase_.resize(machine.n_threads(), 0.0);
  quiet_.resize(machine.n_threads());
  begin_run(0, {});
}

void NoiseModel::begin_run(std::uint64_t run_seed, const topo::CpuSet& busy) {
  Rng base(run_seed);
  daemon_rng_ = base.fork(1);
  kworker_rng_ = base.fork(2);
  irq_rng_ = base.fork(3);
  placement_rng_ = base.fork(4);
  Rng tick_rng = base.fork(5);
  Rng degrade_rng = base.fork(6);

  for (auto& v : times_) v.clear();
  for (auto& v : durs_) v.clear();
  std::fill(sorted_len_.begin(), sorted_len_.end(), 0);
  degraded_ = degrade_rng.bernoulli(cfg_.degrade_prob);

  const double daemon_rate =
      cfg_.daemon_rate * (degraded_ ? cfg_.degrade_rate_mult : 1.0);
  daemon_next_ = daemon_rate > 0.0 ? daemon_rng_.exponential(daemon_rate)
                                   : 1e300;
  irq_next_ = cfg_.irq_rate > 0.0 ? irq_rng_.exponential(cfg_.irq_rate) : 1e300;
  for (std::size_t h = 0; h < machine_.n_threads(); ++h) {
    kworker_next_[h] =
        cfg_.kworker_rate_per_cpu > 0.0
            ? kworker_rng_.exponential(cfg_.kworker_rate_per_cpu)
            : 1e300;
    tick_phase_[h] = tick_rng.uniform(0.0, cfg_.tick_period);
  }
  horizon_ = 0.0;
  std::fill(quiet_.begin(), quiet_.end(),
            QuietWindow{std::numeric_limits<double>::infinity(), 0.0});
  set_busy(busy);
}

void NoiseModel::set_busy(const topo::CpuSet& busy) {
  std::fill(busy_.begin(), busy_.end(), false);
  for (std::size_t h : busy) {
    if (h < busy_.size()) busy_[h] = true;
  }
  refresh_absorb_factors();
}

void NoiseModel::refresh_absorb_factors() {
  for (std::size_t h = 0; h < absorb_factor_.size(); ++h) {
    double factor = 1.0;
    if (const auto sib = machine_.sibling(h);
        sib && *sib < busy_.size() && !busy_[*sib]) {
      factor = cfg_.smt_absorb_factor;
    }
    absorb_factor_[h] = factor;
  }
}

void NoiseModel::place_daemon(double t, double dur) {
  // Find a fully idle core; failing that, an idle sibling; failing that,
  // preempt a busy HW thread chosen uniformly.
  scratch_busy_.clear();
  for (std::size_t h = 0; h < busy_.size(); ++h) {
    if (busy_[h]) scratch_busy_.push_back(h);
  }
  if (scratch_busy_.empty()) return;  // nothing to disturb

  // Wake-affinity miss: land on the cache-hot previous CPU regardless of
  // idle capacity. More likely the fuller the node is.
  const double busy_fraction = static_cast<double>(scratch_busy_.size()) /
                               static_cast<double>(busy_.size());
  if (placement_rng_.bernoulli(cfg_.daemon_miss_factor * busy_fraction)) {
    const std::size_t victim =
        scratch_busy_[placement_rng_.next_below(scratch_busy_.size())];
    append_event(victim, t, dur);
    return;
  }

  // Idle core: a core none of whose HW threads are busy.
  for (const auto& threads : core_threads_) {
    bool any_busy = false;
    for (std::size_t h : threads) {
      if (busy_[h]) {
        any_busy = true;
        break;
      }
    }
    if (!any_busy) return;  // absorbed with zero impact
  }

  // Idle SMT sibling of a busy HW thread.
  scratch_siblings_.clear();
  for (std::size_t h = 0; h < busy_.size(); ++h) {
    if (busy_[h]) continue;
    const auto sib = machine_.sibling(h);
    if (sib && busy_[*sib]) scratch_siblings_.push_back(*sib);
  }
  if (!scratch_siblings_.empty()) {
    const std::size_t victim = scratch_siblings_[placement_rng_.next_below(
        scratch_siblings_.size())];
    append_event(victim, t, dur * cfg_.smt_absorb_factor);
    return;
  }

  // Full preemption of a random busy thread.
  const std::size_t victim =
      scratch_busy_[placement_rng_.next_below(scratch_busy_.size())];
  append_event(victim, t, dur);
}

void NoiseModel::sort_new_events() {
  for (std::size_t h = 0; h < times_.size(); ++h) {
    auto& tv = times_[h];
    auto& dv = durs_[h];
    const std::size_t sorted = sorted_len_[h];
    if (tv.size() == sorted) continue;
    // Every event of this extension carries a time >= the previous horizon
    // (each source's next-arrival clock had crossed it), so sorting the
    // fresh tail alone restores global order — untouched CPUs and the
    // already-sorted head are never re-sorted. The joint (time, duration)
    // sort applies the exact permutation the retired AoS event sort did:
    // same comparator outcomes, same algorithm, same element order.
    sort_scratch_.clear();
    sort_scratch_.reserve(tv.size() - sorted);
    for (std::size_t k = sorted; k < tv.size(); ++k) {
      sort_scratch_.emplace_back(tv[k], dv[k]);
    }
    std::sort(sort_scratch_.begin(), sort_scratch_.end(),
              [](const std::pair<double, double>& a,
                 const std::pair<double, double>& b) {
                return a.first < b.first;
              });
    assert(sorted == 0 || sort_scratch_.front().first >= tv[sorted - 1]);
    for (std::size_t k = 0; k < sort_scratch_.size(); ++k) {
      tv[sorted + k] = sort_scratch_[k].first;
      dv[sorted + k] = sort_scratch_[k].second;
    }
    sorted_len_[h] = tv.size();
  }
}

void NoiseModel::ensure_horizon(double t) {
  if (t <= horizon_) return;
  const double target = std::max(t * 1.25, horizon_ + 0.25);

  // Daemons.
  const double daemon_rate =
      cfg_.daemon_rate * (degraded_ ? cfg_.degrade_rate_mult : 1.0);
  while (daemon_next_ < target) {
    const double mu_log = std::log(cfg_.daemon_mean) -
                          0.5 * cfg_.daemon_sigma_log * cfg_.daemon_sigma_log;
    const double dur = daemon_rng_.lognormal(mu_log, cfg_.daemon_sigma_log);
    place_daemon(daemon_next_, dur);
    daemon_next_ += daemon_rng_.exponential(daemon_rate);
  }

  // IRQ storms: pinned to the first irq_cpus CPUs, full impact if busy.
  while (irq_next_ < target) {
    const double dur = irq_rng_.pareto(cfg_.irq_xm, cfg_.irq_alpha);
    const std::size_t cpu = irq_rng_.next_below(
        std::min<std::size_t>(cfg_.irq_cpus, machine_.n_threads()));
    append_event(cpu, irq_next_, dur);
    irq_next_ += irq_rng_.exponential(cfg_.irq_rate);
  }

  // Per-CPU kworkers.
  if (cfg_.kworker_rate_per_cpu > 0.0) {
    const double mu_log =
        std::log(cfg_.kworker_mean) -
        0.5 * cfg_.kworker_sigma_log * cfg_.kworker_sigma_log;
    for (std::size_t h = 0; h < machine_.n_threads(); ++h) {
      while (kworker_next_[h] < target) {
        const double dur =
            kworker_rng_.lognormal(mu_log, cfg_.kworker_sigma_log);
        append_event(h, kworker_next_[h], dur);
        kworker_next_[h] += kworker_rng_.exponential(cfg_.kworker_rate_per_cpu);
      }
    }
  }

  sort_new_events();
  horizon_ = target;
}

double NoiseModel::full_preemption_delay(std::size_t h, double t0,
                                         double t1) {
  // Analytic timer ticks: those of period `tick_period` and phase
  // tick_phase_[h] arriving in [t0, t1), each costing tick_duration.
  double delay = 0.0;
  double quiet_until = std::numeric_limits<double>::infinity();
  if (cfg_.tick_duration > 0.0 && cfg_.tick_period > 0.0) {
    const double period = cfg_.tick_period;
    const double phase = tick_phase_[h];
    const double first = std::ceil((t0 - phase) / period) * period + phase;
    if (first < t1) {
      const double n = std::floor((t1 - first) / period) + 1.0;
      delay = n * cfg_.tick_duration;
    }
    quiet_until = first;
  }

  // ST absorption: with an idle SMT sibling, the kernel runs interrupting
  // work on the sibling HW thread and the benchmark thread only loses a
  // share of core resources instead of being fully preempted. The factor
  // is cached per busy-set change (refresh_absorb_factors), not looked up
  // per query.
  const double factor = absorb_factor_[h];
  const auto& tv = times_[h];
  const auto& dv = durs_[h];
  const std::size_t begin = static_cast<std::size_t>(
      std::lower_bound(tv.begin(), tv.end(), t0) - tv.begin());
  for (std::size_t k = begin; k < tv.size() && tv[k] < t1; ++k) {
    delay += dv[k] * factor;
  }
  // [t0, quiet_until) holds no tick and no event, now or after any later
  // horizon extension (see preemption_delay).
  quiet_until = std::min(quiet_until, begin < tv.size() ? tv[begin] : horizon_);
  quiet_[h] = {t0, quiet_until};
  return delay;
}

}  // namespace omv::sim
