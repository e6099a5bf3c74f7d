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
#include <span>
#include <string>
#include <vector>

#include "core/prefix_index.hpp"
#include "core/rng.hpp"
#include "topo/topology.hpp"

namespace omv::snap {
class Capture;
class Restore;
}  // namespace omv::snap

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
/// derived search and reduction indices — the canonical representation that
/// both the query kernels and snapshots consume directly.
class FreqModel {
 public:
  /// Density-adaptive scan/index cutover (episodes per domain): domains
  /// holding at most this many episodes are integrated by the historical
  /// full scan (bit-identical to the pre-index accumulation and faster at
  /// low densities, where the two binary searches plus boundary back-scans
  /// of the prefix path used to regress); larger domains use the prefix
  /// index. Sits at the measured crossover of BENCH_hotpath.json's density
  /// sweep; may only ever be raised (see NoiseModel::kScanCutover).
  static constexpr std::size_t kScanCutover = 48;

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
  /// Indexed: two binary searches on the start-sorted episode vector; the
  /// episodes fully inside the window are integrated by compensated prefix
  /// sums in O(1), and the episodes partially overlapping either window
  /// boundary are enumerated and trimmed explicitly (a max-end-pruned
  /// back-scan), so partial overlaps are exact. Domains holding few
  /// episodes take the historical full-scan path, which reproduces the
  /// pre-index floating-point accumulation bit for bit.
  double mean_factor(std::size_t core, double t0, double t1);

  /// Elapsed wall time to complete `work` seconds of fmax-rate compute
  /// starting at `t0` on `core` (inverts the factor integral; fixed-point
  /// iteration, converges in a few steps because factors are in [0.5, 1]).
  /// Flat-frequency windows — the common case — cost one indexed episode
  /// lookup per fixed-point step: a verified-flat span is carried between
  /// steps so shrinking windows skip the episode search entirely.
  double elapsed_for_work(std::size_t core, double t0, double work);

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
  friend class snap::Capture;
  friend class snap::Restore;

  /// Canonical columnar storage plus query index for one domain's
  /// start-sorted episodes. Episodes arrive in start order, so all arrays
  /// are append-only and extended incrementally per horizon extension.
  struct DomainIndex {
    /// The domain's episode columns — binary searches and integration scans
    /// stream one contiguous double array each instead of striding through
    /// episode records (and they are what snapshots serialize directly).
    std::vector<double> starts;
    std::vector<double> ends;
    std::vector<double> depths;
    /// max episode end over episodes [0, k) — prunes the back-scan that
    /// enumerates episodes straddling a window boundary.
    std::vector<double> max_end;
    /// Σ (1 - depth)·(end - start): full-episode reduction under the
    /// uncapped base (base = 1).
    stats::PrefixSum red_uncapped;
    /// Σ max(0, run_cap_depth - depth)·(end - start): reduction under the
    /// capped base.
    stats::PrefixSum red_capped;

    void clear() {
      starts.clear();
      ends.clear();
      depths.clear();
      max_end.clear();
      red_uncapped.clear();
      red_capped.clear();
    }
  };

  void ensure_horizon(double t);
  /// Extends the derived search/reduction indices (max_end, reduction
  /// prefix sums) over episode columns appended since the last call.
  void index_new_episodes();
  /// Rebuilds derived state after a snapshot restore repopulated the
  /// serialized episode columns.
  void after_restore(snap::Restore& v);

  /// Single field enumeration driving both snapshot directions.
  template <typename V>
  void snapshot_fields(V& v) {
    v.object("episode_rng", episode_rng_);
    v.object("jitter_rng", jitter_rng_);
    for (std::size_t d = 0; d < index_.size(); ++d) {
      const std::string p = "dom" + std::to_string(d);
      v.field(p + ".starts", index_[d].starts);
      v.field(p + ".ends", index_[d].ends);
      v.field(p + ".depths", index_[d].depths);
    }
    v.field("next_arrival", next_arrival_);
    v.field("horizon", horizon_);
    v.field("rate", rate_);
    v.field("activity_mult", activity_mult_);
    v.field("load_fraction", load_fraction_);
    v.field("run_capped", run_capped_);
    if constexpr (V::is_restore) after_restore(v);
  }
  /// Reduction Σ w·|[t0,t1) ∩ episode| over domain `numa` under `base`,
  /// where w = base - min(base, depth). Indexed query (see mean_factor).
  double window_reduction(std::size_t numa, double t0, double t1,
                          double base) const;
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
