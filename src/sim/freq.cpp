#include "sim/freq.hpp"

#include <algorithm>
#include <cmath>

namespace omv::sim {

FreqConfig FreqConfig::vera() {
  FreqConfig c;
  // Single-NUMA workloads see rare dips; cross-NUMA workloads stress the
  // uncore/power budget and dip an order of magnitude more often.
  // The default profile models a quiet session (the paper's Table 2 / Fig 3
  // sessions show tight Vera columns); vera_dippy() models the sessions
  // during which the paper observed active frequency variation (Figs 6/7).
  c.episode_rate = 0.002;
  c.episode_mean = 0.6;
  c.depth_lo = 0.82;
  c.depth_hi = 0.93;
  // No run-scoped cap: Vera's Table 2 columns are tight at both thread
  // counts; its variability is episodic (dips), not run-scoped.
  c.run_cap_prob = 0.0;
  c.cross_numa_rate_mult = 3.0;
  return c;
}

FreqConfig FreqConfig::dardel() {
  FreqConfig c;
  // Instantaneous frequency is nearly flat (the paper logs little variation
  // on Dardel), but whole runs occasionally start in a reduced
  // turbo-residency state — the Table 2 run-level outlier.
  c.episode_rate = 0.005;
  c.episode_mean = 0.2;
  c.depth_lo = 0.96;
  c.depth_hi = 0.99;
  c.run_cap_prob = 0.08;
  c.run_cap_depth = 0.91;
  return c;
}

FreqConfig FreqConfig::vera_dippy() {
  // A Vera session during which frequency variation is active — the
  // sessions behind Figs. 6 and 7. Same mechanics as vera(), higher
  // episode pressure.
  FreqConfig c = vera();
  c.episode_rate = 0.10;
  c.cross_numa_rate_mult = 10.0;
  return c;
}

FreqConfig FreqConfig::flat() {
  FreqConfig c;
  c.episode_rate = 0.0;
  c.jitter = 0.0;
  c.run_cap_prob = 0.0;
  return c;
}

FreqModel::FreqModel(const topo::Machine& machine, FreqConfig cfg)
    : machine_(machine), cfg_(cfg) {
  index_.resize(machine.n_numa());
  next_arrival_.resize(machine.n_numa(), 0.0);
  core_numa_.resize(machine.n_cores(), 0);
  for (std::size_t core = 0; core < machine.n_cores(); ++core) {
    const auto threads = machine.core_threads(core);
    core_numa_[core] =
        threads.empty() ? 0 : machine.thread(threads.first()).numa;
  }
  begin_run(0);
}

void FreqModel::begin_run(std::uint64_t run_seed) {
  Rng base(run_seed);
  episode_rng_ = base.fork(11);
  jitter_rng_ = base.fork(12);
  Rng cap_rng = base.fork(13);
  run_capped_ = cap_rng.bernoulli(cfg_.run_cap_prob);
  // The activity multiplier and load fraction are per-run state: carrying
  // a previous run's values into the arrival draws or the cap gate would
  // make a run's behaviour depend on what ran before it, breaking the
  // invariant that run state derives solely from run_seed (callers
  // re-declare both via set_activity_domains / set_load_fraction right
  // after begin_run).
  activity_mult_ = 1.0;
  load_fraction_ = 1.0;
  rate_ = cfg_.episode_rate * activity_mult_;
  for (auto& idx : index_) idx.clear();
  for (auto& t : next_arrival_) {
    t = rate_ > 0.0 ? episode_rng_.exponential(rate_) : 1e300;
  }
  horizon_ = 0.0;
}

void FreqModel::set_activity_domains(std::size_t n_domains) {
  activity_mult_ = n_domains > 1 ? cfg_.cross_numa_rate_mult : 1.0;
  const double new_rate = cfg_.episode_rate * activity_mult_;
  if (new_rate != rate_) {
    rate_ = new_rate;
    // Re-draw pending arrivals under the new rate (episodes already
    // generated are kept; only the future changes).
    for (auto& t : next_arrival_) {
      t = rate_ > 0.0 ? horizon_ + episode_rng_.exponential(rate_) : 1e300;
    }
  }
}

void FreqModel::ensure_horizon(double t) {
  if (t <= horizon_ || rate_ <= 0.0) {
    horizon_ = std::max(horizon_, t);
    return;
  }
  const double target = std::max(t * 1.25, horizon_ + 1.0);
  const double mu_log = std::log(cfg_.episode_mean) -
                        0.5 * cfg_.episode_sigma_log * cfg_.episode_sigma_log;
  for (std::size_t d = 0; d < index_.size(); ++d) {
    auto& idx = index_[d];
    while (next_arrival_[d] < target) {
      const double start = next_arrival_[d];
      const double end =
          start + episode_rng_.lognormal(mu_log, cfg_.episode_sigma_log);
      const double depth = episode_rng_.uniform(cfg_.depth_lo, cfg_.depth_hi);
      idx.starts.push_back(start);
      idx.ends.push_back(end);
      idx.depths.push_back(depth);
      idx.max_end.push_back(std::max(idx.max_end.back(), end));
      next_arrival_[d] += episode_rng_.exponential(rate_);
    }
  }
  horizon_ = target;
}

double FreqModel::factor(std::size_t core, double t) {
  if (t > horizon_) ensure_horizon(t);
  double f = run_capped() ? cfg_.run_cap_depth : 1.0;
  const std::size_t numa = core_numa(core);
  const auto& idx = index_[numa];
  // Episodes active at t have start <= t (a start-sorted prefix) and
  // end > t; walk the prefix backwards, stopping once the running max end
  // proves no earlier episode can still be active. min() is exact, so this
  // matches the historical full scan bit for bit.
  const std::size_t j = static_cast<std::size_t>(
      std::upper_bound(idx.starts.begin(), idx.starts.end(), t) -
      idx.starts.begin());
  for (std::size_t k = j; k-- > 0;) {
    if (idx.max_end[k + 1] <= t) break;
    if (t < idx.ends[k]) f = std::min(f, idx.depths[k]);
  }
  return f;
}

double FreqModel::sample_ghz(std::size_t core, double t) {
  double f = factor(core, t);
  if (cfg_.jitter > 0.0) {
    f *= 1.0 + jitter_rng_.normal(0.0, cfg_.jitter);
  }
  // Per-class boost clock: on heterogeneous machines an E-core dips from
  // its own fmax, not the P-cores'. Ghost cores (>= n_cores) fall back to
  // the machine-wide max, mirroring the core_numa() guard above.
  const double fmax = core < machine_.n_cores() ? machine_.core_max_ghz(core)
                                                : machine_.max_ghz();
  return std::max(0.1, f) * fmax;
}

double FreqModel::mean_factor_impl(std::size_t core, double t0, double t1,
                                   bool* flat_out) {
  if (flat_out != nullptr) *flat_out = false;
  if (t1 <= t0) return factor(core, t0);
  if (t1 > horizon_) ensure_horizon(t1);
  const double base = run_capped() ? cfg_.run_cap_depth : 1.0;
  const auto& idx = index_[core_numa(core)];
  // Integrate: base everywhere, lowered inside episodes. Episodes may
  // overlap; accumulate reduction per episode and clamp (episodes rarely
  // overlap at the configured rates) — the historical semantics.
  double integral = base * (t1 - t0);
  // O(1) exit for a window outside every episode (an empty domain, a
  // window past the last end or before the first start) — the common case
  // on sparse domains. The binary searches below would find no episode
  // and return the same value.
  if (outside_every_episode(idx, t0, t1)) {
    if (flat_out != nullptr) *flat_out = true;
    return std::max(0.1, integral / (t1 - t0));
  }
  // Only episodes [k0, k1) can overlap the window: every episode before
  // k0 ends by t0 (k0 is the first whose running max end passes t0) and
  // every episode from k1 on starts at or after t1. Each skipped episode
  // fails the hi > lo test below, so visiting the rest in start order
  // performs exactly the historical full scan's floating-point operations.
  const auto reach = idx.max_end.begin() + 1;  // latest end of [0, k]
  const auto k0 = static_cast<std::size_t>(
      std::upper_bound(reach, idx.max_end.end(), t0) - reach);
  const auto k1 = static_cast<std::size_t>(
      std::lower_bound(idx.starts.begin(), idx.starts.end(), t1) -
      idx.starts.begin());
  bool overlapped = false;
  for (std::size_t k = k0; k < k1; ++k) {
    const double lo = std::max(t0, idx.starts[k]);
    const double hi = std::min(t1, idx.ends[k]);
    if (hi > lo) {
      overlapped = true;
      const double depth = std::min(base, idx.depths[k]);
      integral -= (base - depth) * (hi - lo);
    }
  }
  if (flat_out != nullptr) *flat_out = !overlapped;
  return std::max(0.1, integral / (t1 - t0));
}

double FreqModel::mean_factor(std::size_t core, double t0, double t1) {
  return mean_factor_impl(core, t0, t1, nullptr);
}

double FreqModel::iterate_elapsed_for_work(std::size_t core, double t0,
                                           double work) {
  double d = work;  // initial guess: full speed
  // Episode-boundary-aware early exit: once a window is verified
  // episode-free, any shorter window is flat too and the fixed-point step
  // costs pure arithmetic — no episode search, no horizon call (the wider
  // window already extended it).
  double flat_hi = t0;
  for (int iter = 0; iter < 4; ++iter) {
    const double t1 = t0 + d;
    double m;
    if (t1 > t0 && t1 <= flat_hi) {
      const double base = run_capped() ? cfg_.run_cap_depth : 1.0;
      const double integral = base * (t1 - t0);
      m = std::max(0.1, integral / (t1 - t0));
    } else {
      bool flat = false;
      m = mean_factor_impl(core, t0, t1, &flat);
      if (flat && t1 > flat_hi) flat_hi = t1;
    }
    const double nd = work / m;
    if (std::abs(nd - d) < 1e-12) return nd;
    d = nd;
  }
  return d;
}

}  // namespace omv::sim
