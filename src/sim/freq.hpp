#pragma once
// DVFS / core-frequency model.
//
// The paper observes (Section 5.4) that even under the `performance`
// governor, Vera shows frequency *dip episodes* — correlated within a NUMA
// domain — which translate directly into execution-time variability, while
// Dardel's frequency is nearly flat. We model per-NUMA-domain episodes:
// Poisson arrivals of dips with lognormal durations and uniform depth, plus
// small per-core white jitter. The instantaneous frequency of a core is
//
//   f(core, t) = fmax * depth(numa(core), t) * (1 + jitter)
//
// and the compute rate of a thread scales as f / fmax.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "topo/topology.hpp"

namespace omv::sim {

/// Frequency model knobs. Depth is the fraction of fmax during a dip.
struct FreqConfig {
  double episode_rate = 0.0;     ///< dips per second per NUMA domain.
  double episode_mean = 0.5;     ///< mean dip duration (s).
  double episode_sigma_log = 0.6;
  double depth_lo = 0.80;        ///< dip depth range (fraction of fmax).
  double depth_hi = 0.93;
  double jitter = 0.002;         ///< white per-sample jitter (fraction).
  /// Probability that a run starts inside a long "capped" state (sustained
  /// sub-fmax operation: a power-limit / turbo-residency episode). The cap
  /// only takes effect when the machine-load fraction (busy HW threads /
  /// all HW threads, declared via set_load_fraction) reaches
  /// cap_load_threshold — lightly loaded nodes hold full boost, which is
  /// why Table 2's 4-thread columns are tight while the full-node column
  /// shows run-level outliers.
  double run_cap_prob = 0.0;
  double run_cap_depth = 0.92;
  double cap_load_threshold = 0.05;
  /// Episode-rate multiplier applied when the workload spans more than one
  /// NUMA domain (the paper's Fig. 6/7 observation: cross-NUMA experiments
  /// on Vera see far more frequency dips, as uncore/power budgets are
  /// stressed by remote traffic). Set via FreqModel::set_activity_domains.
  double cross_numa_rate_mult = 1.0;

  /// Vera: occasional NUMA-correlated dips, more frequent cross-NUMA.
  static FreqConfig vera();
  /// A Vera session with active frequency variation (Figs. 6/7's sessions).
  static FreqConfig vera_dippy();
  /// Dardel: nearly flat frequency.
  static FreqConfig dardel();
  /// No variation at all (ablation / unit tests).
  static FreqConfig flat();
};

/// Deterministic per-run frequency model, queryable at any time. Episodes
/// are stored columnar (SoA) per NUMA domain — start/end/depth columns plus
/// a running max end — the canonical representation the queries consume
/// directly.
class FreqModel {
 public:
  FreqModel(const topo::Machine& machine, FreqConfig cfg);

  /// Starts a new run: clears episodes, reseeds, samples the run-cap state.
  void begin_run(std::uint64_t run_seed);

  /// Declares how many NUMA domains the running workload spans; spanning
  /// more than one multiplies the episode rate by cross_numa_rate_mult.
  /// Call before generating episodes (i.e. right after begin_run).
  void set_activity_domains(std::size_t n_domains);

  /// Declares the busy fraction of the machine (gates the run cap).
  void set_load_fraction(double f) noexcept { load_fraction_ = f; }

  /// Frequency multiplier (0 < m <= ~1) for `core` at time `t`,
  /// without white jitter (deterministic component). Indexed: binary search
  /// on episode starts plus a max-end-pruned back-scan over straddlers.
  double factor(std::size_t core, double t);

  /// Instantaneous frequency in GHz including white jitter — what the
  /// frequency *logger* samples (jitter models sysfs readout granularity).
  double sample_ghz(std::size_t core, double t);

  /// Mean multiplier over [t0, t1) for `core` (exact episode integration).
  ///
  /// Two binary searches bound the episodes that can overlap the window:
  /// the first whose running max end passes t0, and the first starting at
  /// or after t1. Those are integrated in start order; every episode
  /// outside the bounds contributes nothing, so the result equals
  /// reference::mean_factor's full scan bit for bit at every density.
  double mean_factor(std::size_t core, double t0, double t1);

  /// Elapsed wall time to complete `work` seconds of fmax-rate compute
  /// starting at `t0` on `core` (inverts the factor integral; fixed-point
  /// iteration, converges in a few steps because factors are in [0.5, 1]).
  ///
  /// Uncapped flat windows — the common case — return `work` at once. With
  /// no run cap the base is 1.0, and when no episode overlaps
  /// [t0, t1 = t0 + work) (the O(1) test of mean_factor, after the same
  /// horizon extension) the first fixed-point step computes
  /// integral = 1.0 * Δ = Δ and m = max(0.1, Δ / Δ) = 1 exactly for any
  /// finite Δ = t1 - t0 > 0; then work / 1 = work equals the initial
  /// guess and the loop returns it. Capped runs and windows that may
  /// overlap an episode take the loop, where a verified-flat span is
  /// carried between steps so shrinking windows skip the episode search.
  double elapsed_for_work(std::size_t core, double t0, double work) {
    if (work <= 0.0) return 0.0;
    const double t1 = t0 + work;
    if (!run_capped() && t0 < t1 &&
        t1 <= std::numeric_limits<double>::max()) {
      if (t1 > horizon_) ensure_horizon(t1);
      if (outside_every_episode(index_[core_numa(core)], t0, t1)) {
        return work;
      }
    }
    return iterate_elapsed_for_work(core, t0, work);
  }

  /// Materializes episode arrivals up to time `t` (normally done lazily;
  /// exposed so the differential oracle and the benchmark's layer probe can
  /// pin the episode history before pure queries).
  void materialize_to(double t) { ensure_horizon(t); }

  /// Time up to which episodes have been materialized this run. The pure
  /// reference:: queries refuse to read past it (a query there would
  /// silently see an episode-free future).
  [[nodiscard]] double materialized_horizon() const noexcept {
    return horizon_;
  }

  /// NUMA domain hosting `core` (0 for cores with no HW threads — the
  /// guard FreqModel::factor always had and mean_factor historically
  /// lacked).
  [[nodiscard]] std::size_t core_numa(std::size_t core) const noexcept {
    return core < core_numa_.size() ? core_numa_[core] : 0;
  }

  /// True when this run is frequency-capped (cap drawn AND load above the
  /// gating threshold).
  [[nodiscard]] bool run_capped() const noexcept {
    return run_capped_ && load_fraction_ >= cfg_.cap_load_threshold;
  }

  [[nodiscard]] const FreqConfig& config() const noexcept { return cfg_; }

  /// Start times of the episodes materialized so far on a NUMA domain,
  /// sorted ascending (arrival order). Valid until the next materialization.
  [[nodiscard]] std::span<const double> episode_starts(std::size_t numa) const {
    return index_.at(numa).starts;
  }

  /// End times matching `episode_starts(numa)` element for element.
  [[nodiscard]] std::span<const double> episode_ends(std::size_t numa) const {
    return index_.at(numa).ends;
  }

  /// Dip depths matching `episode_starts(numa)` element for element.
  [[nodiscard]] std::span<const double> episode_depths(std::size_t numa) const {
    return index_.at(numa).depths;
  }

 private:
  /// Canonical columnar storage for one domain's start-sorted episodes.
  /// Episodes arrive in start order, so all arrays are append-only and
  /// extended incrementally per horizon extension.
  struct DomainIndex {
    /// The domain's episode columns — binary searches and integration scans
    /// stream one contiguous double array each instead of striding through
    /// episode records.
    std::vector<double> starts;
    std::vector<double> ends;
    std::vector<double> depths;
    /// max episode end over episodes [0, k) (so max_end[0] = -inf): no
    /// episode before the first k with max_end[k + 1] > t reaches past t.
    std::vector<double> max_end;

    void clear() {
      starts.clear();
      ends.clear();
      depths.clear();
      max_end.assign(1, -std::numeric_limits<double>::infinity());
    }
  };

  /// True when [t0, t1) misses every episode of `idx` by the O(1) bounds:
  /// it starts at or after the latest end, or ends at or before the first
  /// start (the -inf max_end sentinel covers an empty domain).
  [[nodiscard]] static bool outside_every_episode(const DomainIndex& idx,
                                                  double t0,
                                                  double t1) noexcept {
    return idx.max_end.back() <= t0 || t1 <= idx.starts.front();
  }

  /// elapsed_for_work's fixed-point loop (every run, capped or not).
  double iterate_elapsed_for_work(std::size_t core, double t0, double work);
  void ensure_horizon(double t);
  /// mean_factor plus a flatness report (`flat_out` true when no episode
  /// overlapped the window) feeding elapsed_for_work's early exit.
  double mean_factor_impl(std::size_t core, double t0, double t1,
                          bool* flat_out);

  const topo::Machine& machine_;
  FreqConfig cfg_;
  Rng episode_rng_;
  Rng jitter_rng_;
  std::vector<DomainIndex> index_;  ///< per NUMA domain.
  std::vector<std::size_t> core_numa_;  ///< core → NUMA domain (guarded).
  std::vector<double> next_arrival_;
  double horizon_ = 0.0;
  double rate_ = 0.0;
  double activity_mult_ = 1.0;
  double load_fraction_ = 1.0;
  bool run_capped_ = false;
};

}  // namespace omv::sim
