#pragma once
// EPCC OpenMP micro-benchmark measurement protocol, reimplemented.
//
// The EPCC suite measures the *overhead* of an OpenMP construct as the
// difference between the time per iteration of a loop containing the
// construct (with a calibrated spin payload, the "delay") and a serial
// reference loop containing only the delay. Each outer repetition executes
// `innerreps` construct instances, where innerreps is calibrated so one
// outer repetition lasts roughly `test_time_us`. The paper runs 100 outer
// repetitions per run (Table 1) and 10 runs per configuration.

#include <cstddef>
#include <string>
#include <vector>

namespace omv::bench {

/// Table 1 parameters.
struct EpccParams {
  std::size_t outer_reps = 100;
  double delay_us = 0.1;       ///< payload per construct instance.
  double test_time_us = 1000;  ///< target duration of one outer repetition.
  std::size_t itersperthr = 8192;  ///< schedbench only.

  /// schedbench column of Table 1 (delay 15 us, itersperthr 8192).
  static EpccParams schedbench() {
    EpccParams p;
    p.delay_us = 15.0;
    p.itersperthr = 8192;
    return p;
  }
  /// syncbench column of Table 1 (delay 0.1 us).
  static EpccParams syncbench() {
    EpccParams p;
    p.delay_us = 0.1;
    return p;
  }
};

/// The synchronization constructs syncbench measures.
enum class SyncConstruct {
  parallel,
  for_,
  barrier,
  single,
  critical,
  lock,
  ordered,
  atomic,
  reduction,
};

/// All constructs in syncbench order.
[[nodiscard]] const std::vector<SyncConstruct>& all_sync_constructs();
[[nodiscard]] const char* sync_construct_name(SyncConstruct c) noexcept;

/// Calibrates innerreps so `instance_time_us * innerreps ~= test_time_us`,
/// clamped to [1, 10^6] (EPCC's guard rails).
[[nodiscard]] std::size_t calibrate_innerreps(double instance_time_us,
                                              double test_time_us);

}  // namespace omv::bench
