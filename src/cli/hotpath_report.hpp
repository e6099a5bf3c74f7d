#pragma once
// BENCH_hotpath.json — the repo's tracked hot-path perf trajectory.
//
// The perf_hotpath harness self-times the simulator's query kernels
// (preemption_delay, mean_factor, elapsed_for_work, a full SimTeam barrier
// phase) at several event densities, against the retained brute-force
// reference implementations (sim/reference.hpp) as the in-file baseline.
// This module renders those measurements as a machine-readable JSON
// document so successive commits accumulate a comparable perf curve, and
// CI can validate the file's shape in quick mode.

#include <cstddef>
#include <string>
#include <vector>

namespace omv::cli {

/// One (kernel, density) measurement. `baseline_ns` is the best ns/op of
/// the brute-force reference query (sim/reference.hpp) over the same
/// stream and query sequence; 0 means the kernel has no baseline (the
/// barrier phase, which is reported absolute).
struct HotpathKernelResult {
  std::string kernel;
  std::string density;
  std::size_t stream_events = 0;  ///< events/episodes materialized.
  double optimized_ns = 0.0;      ///< best ns/op, indexed implementation.
  double baseline_ns = 0.0;       ///< best ns/op, reference scan.

  /// True when a baseline exists and the optimized path is slower than it
  /// (speedup < 1.0) — the condition perf_hotpath flags as
  /// [PERF-REGRESSION].
  [[nodiscard]] bool regression() const noexcept {
    return baseline_ns > 0.0 && optimized_ns > baseline_ns;
  }
};

struct HotpathReport {
  bool quick = false;          ///< OMNIVAR_QUICK measurement (reduced budget).
  std::string sim_machine;     ///< simulated topology preset name.
  /// Adaptive scan/index cutovers in effect (events per window / episodes
  /// per domain) — the thresholds the density-adaptive dispatch switches
  /// at, recorded so trajectory points remain comparable across commits.
  std::size_t noise_scan_cutover = 0;
  std::size_t freq_scan_cutover = 0;
  std::vector<HotpathKernelResult> kernels;
};

/// Renders the report as schema "omnivar-bench-hotpath-v3" JSON (includes
/// host metadata: hardware concurrency, compiler, build flavor, adaptive
/// cutovers; per-kernel regression booleans plus a top-level
/// any_regression). Throws std::invalid_argument when the report holds no
/// kernels — an empty perf file must fail loudly, not accumulate silently.
[[nodiscard]] std::string hotpath_report_json(const HotpathReport& report);

/// Writes the rendered report to `path`. Returns false on I/O failure.
bool write_hotpath_report(const HotpathReport& report,
                          const std::string& path);

}  // namespace omv::cli
