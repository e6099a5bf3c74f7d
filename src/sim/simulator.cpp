#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace omv::sim {

SimConfig SimConfig::dardel() {
  SimConfig c;
  c.noise = NoiseConfig::dardel();
  c.freq = FreqConfig::dardel();
  c.mem = MemConfig::dardel();
  c.costs = CostModel::dardel();
  return c;
}

SimConfig SimConfig::vera() {
  SimConfig c;
  c.noise = NoiseConfig::vera();
  c.freq = FreqConfig::vera();
  c.mem = MemConfig::vera();
  c.costs = CostModel::vera();
  return c;
}

SimConfig SimConfig::ideal() {
  SimConfig c;
  c.noise = NoiseConfig::quiet();
  c.freq = FreqConfig::flat();
  c.mem = MemConfig{};
  c.costs = CostModel{};
  return c;
}

Simulator::Simulator(topo::Machine machine, SimConfig cfg)
    : machine_(std::move(machine)), cfg_(std::move(cfg)) {
  if (!cfg_.class_work_rate.empty()) {
    for (const double r : cfg_.class_work_rate) {
      if (!(r > 0.0)) {
        throw std::invalid_argument(
            "Simulator: class_work_rate entries must be positive");
      }
    }
    core_rate_.resize(machine_.n_cores(), 1.0);
    for (std::size_t core = 0; core < machine_.n_cores(); ++core) {
      const std::size_t cls = machine_.core_class(core);
      if (cls < cfg_.class_work_rate.size()) {
        core_rate_[core] = cfg_.class_work_rate[cls];
      }
    }
  }
  noise_ = std::make_unique<NoiseModel>(machine_, cfg_.noise);
  freq_ = std::make_unique<FreqModel>(machine_, cfg_.freq);
  mem_ = std::make_unique<MemoryModel>(machine_, cfg_.mem);
}

void Simulator::begin_run(std::uint64_t run_seed, const topo::CpuSet& busy) {
  noise_->begin_run(run_seed, busy);
  freq_->begin_run(run_seed);
  misc_rng_ = Rng(run_seed).fork(0xA11CE);
}

}  // namespace omv::sim
