#pragma once
// NUMA memory-bandwidth model for the BabelStream kernels.
//
// Each NUMA domain has a peak bandwidth shared by the threads streaming from
// it; a single core cannot exceed `per_core_gbps`. A thread whose data lives
// in another domain (first-touch placement followed by migration, or a
// deliberately remote layout) pays a remote-bandwidth factor, larger across
// sockets. This reproduces Fig. 2's scaling (per-thread time shrinks as
// threads are added until domain bandwidth saturates) and the unpinned
// BabelStream variability of Fig. 4 (migration turns local streams remote).

#include <cstddef>
#include <vector>

#include "topo/topology.hpp"

namespace omv::sim {

/// Bandwidth parameters. Units: GB/s and bytes.
struct MemConfig {
  double domain_gbps = 50.0;    ///< peak per NUMA domain.
  double per_core_gbps = 20.0;  ///< single-thread ceiling.
  double remote_numa_factor = 0.70;    ///< same socket, different domain.
  double remote_socket_factor = 0.45;  ///< across sockets.
  /// Multiplicative lognormal jitter sigma on per-phase bandwidth
  /// (prefetcher/row-buffer luck).
  double jitter_sigma_log = 0.015;

  static MemConfig dardel();  ///< 8 domains x ~48 GB/s.
  static MemConfig vera();    ///< 2 domains x ~60 GB/s.
};

/// Computes per-thread streaming time for one kernel phase.
class MemoryModel {
 public:
  MemoryModel(const topo::Machine& machine, MemConfig cfg);

  /// Streaming time (seconds) for each thread to move `bytes_per_thread`
  /// bytes, given each thread's current HW thread (`placement`) and the NUMA
  /// domain its data lives in (`data_domain`, same length). `jitter` in
  /// (0, +inf) multiplies effective bandwidth (1.0 = no jitter).
  [[nodiscard]] std::vector<double> phase_times(
      const std::vector<std::size_t>& placement,
      const std::vector<std::size_t>& data_domain, double bytes_per_thread,
      const std::vector<double>& jitter) const;

  /// Effective bandwidth of a single thread at `hw` accessing `data_domain`
  /// with `sharers` threads streaming from that domain. Throws
  /// std::out_of_range for a `hw` or `data_domain` the machine lacks.
  [[nodiscard]] double thread_gbps(std::size_t hw, std::size_t data_domain,
                                   std::size_t sharers) const;

  [[nodiscard]] const MemConfig& config() const noexcept { return cfg_; }

 private:
  const topo::Machine& machine_;
  MemConfig cfg_;
};

}  // namespace omv::sim
