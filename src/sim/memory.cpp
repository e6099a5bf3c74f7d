#include "sim/memory.hpp"

#include <algorithm>
#include <stdexcept>

namespace omv::sim {

MemConfig MemConfig::dardel() {
  MemConfig c;
  c.domain_gbps = 48.0;
  c.per_core_gbps = 22.0;
  return c;
}

MemConfig MemConfig::vera() {
  MemConfig c;
  c.domain_gbps = 60.0;
  c.per_core_gbps = 14.0;
  return c;
}

MemoryModel::MemoryModel(const topo::Machine& machine, MemConfig cfg)
    : machine_(machine), cfg_(cfg) {}

double MemoryModel::thread_gbps(std::size_t hw, std::size_t data_domain,
                                std::size_t sharers) const {
  sharers = std::max<std::size_t>(sharers, 1);
  const double share = cfg_.domain_gbps / static_cast<double>(sharers);
  double bw = std::min(cfg_.per_core_gbps, share);
  const auto& t = machine_.thread(hw);
  if (t.numa != data_domain) {
    bw *= (t.socket == machine_.numa_socket(data_domain))
              ? cfg_.remote_numa_factor
              : cfg_.remote_socket_factor;
  }
  return bw;
}

std::vector<double> MemoryModel::phase_times(
    const std::vector<std::size_t>& placement,
    const std::vector<std::size_t>& data_domain, double bytes_per_thread,
    const std::vector<double>& jitter) const {
  const std::size_t n = placement.size();
  if (data_domain.size() != n || jitter.size() != n) {
    throw std::invalid_argument("MemoryModel::phase_times: size mismatch");
  }
  // Count how many threads stream from each domain.
  std::vector<std::size_t> sharers(machine_.n_numa(), 0);
  for (std::size_t d : data_domain) ++sharers.at(d);

  std::vector<double> times(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double bw =
        thread_gbps(placement[i], data_domain[i], sharers[data_domain[i]]) *
        jitter[i];
    times[i] = bytes_per_thread / (bw * 1e9);
  }
  return times;
}

}  // namespace omv::sim
