#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/snapshot.hpp"
#include "sim/batch_kernels.hpp"

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

double Simulator::sample_smt_throughput() {
  const double v =
      misc_rng_.normal(cfg_.costs.smt_throughput, cfg_.costs.smt_jitter);
  return std::clamp(v, 0.35, 0.95);
}

double Simulator::advance(std::size_t h, std::size_t core, double t0,
                          double eff_work) {
  const double base_d = freq_->elapsed_for_work(core, t0, eff_work);
  double d = base_d;
  // Preemptions extend the window; a longer window may catch more
  // preemptions. Iterate to a fixed point (converges fast: noise density is
  // far below 1). The frequency term is constant across iterations (same
  // arguments, and the first call materialized every episode its window
  // reads), so base_d replaces the historical per-iteration recomputation
  // bit-identically.
  for (int iter = 0; iter < 6; ++iter) {
    const double delay = noise_->preemption_delay(h, t0, t0 + d);
    const double nd = base_d + delay;
    if (nd <= d + 1e-12) {
      d = nd;
      break;
    }
    d = nd;
  }
  return t0 + d;
}

double Simulator::exec_scaled(std::size_t h, double t0, double work,
                              double rate_factor) {
  if (work <= 0.0) return t0;
  rate_factor = std::max(rate_factor, 1e-6);
  const std::size_t core = machine_.thread(h).core;
  double eff_work = work * cfg_.costs.work_scale / rate_factor;
  // Per-class calibration: slower classes (E-cores) stretch the nominal
  // work. The empty-vector fast path leaves the homogeneous arithmetic
  // bit-identical to the historical expression.
  if (!core_rate_.empty()) eff_work /= core_rate_[core];
  return advance(h, core, t0, eff_work);
}

double Simulator::exec(std::size_t h, double t0, double work,
                       std::size_t share, bool smt_busy) {
  double rate = 1.0;
  if (share > 1) rate /= static_cast<double>(share);
  if (smt_busy) rate *= sample_smt_throughput();
  return exec_scaled(h, t0, work, rate);
}

void Simulator::exec_batch_impl(const Placement& pl, const double* work,
                                std::span<double> clocks) {
  const std::size_t n = clocks.size();
  if (pl.hw.size() != n || pl.share.size() != n ||
      pl.smt_coscheduled.size() != n) {
    throw std::invalid_argument(
        "Simulator::exec_batch: placement/clock sizes differ");
  }
  if (n == 0) return;

  // RNG pass in thread order: the misc-RNG draw sequence must match the
  // per-thread loop exactly, including threads whose work is <= 0 (exec
  // samples the SMT throughput before the zero-work early-out).
  batch_rate_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double rate = 1.0;
    if (pl.share[i] > 1) rate /= static_cast<double>(pl.share[i]);
    if (pl.smt_coscheduled[i]) rate *= sample_smt_throughput();
    batch_rate_[i] = std::max(rate, 1e-6);
  }

  // Per-thread core ids, plus gathered per-thread core rates on
  // heterogeneous machines.
  batch_core_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch_core_[i] = machine_.thread(pl.hw[i]).core;
  }
  const double* core_rate = nullptr;
  if (!core_rate_.empty()) {
    batch_core_rate_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch_core_rate_[i] = core_rate_[batch_core_[i]];
    }
    core_rate = batch_core_rate_.data();
  }

  // Effective work for the whole team in one ISA-dispatched kernel call
  // (per-lane mul/div — bit-identical to the scalar expression on every
  // ISA).
  batch_eff_.resize(n);
  batch::kernels().scale_work(work, cfg_.costs.work_scale,
                              batch_rate_.data(), core_rate,
                              batch_eff_.data(), n);

  // Clock advances in thread order: lazy noise/frequency materialization
  // happens in the same sequence as the per-thread loop, which is what
  // keeps the batched phase bit-identical to it.
  for (std::size_t i = 0; i < n; ++i) {
    if (work[i] <= 0.0) continue;
    clocks[i] = advance(pl.hw[i], batch_core_[i], clocks[i], batch_eff_[i]);
  }
}

void Simulator::exec_batch(const Placement& pl, double work,
                           std::span<double> clocks) {
  batch_work_.assign(clocks.size(), work);
  exec_batch_impl(pl, batch_work_.data(), clocks);
}

void Simulator::exec_batch(const Placement& pl, std::span<const double> work,
                           std::span<double> clocks) {
  if (work.size() != clocks.size()) {
    throw std::invalid_argument(
        "Simulator::exec_batch: work/clock sizes differ");
  }
  exec_batch_impl(pl, work.data(), clocks);
}

void Simulator::capture(snap::SnapshotWriter& w) {
  // Geometry guards lead the record so a cross-machine restore fails before
  // any model field is decoded.
  w.field_u64("sim.n_threads", machine_.n_threads());
  w.field_u64("sim.n_cores", machine_.n_cores());
  w.field_u64("sim.n_numa", machine_.n_numa());
  snap::Capture v(w);
  v.object("sim", *this);
}

void Simulator::restore(snap::SnapshotReader& r) {
  r.expect_u64("sim.n_threads", machine_.n_threads(),
               "machine geometry (hardware threads)");
  r.expect_u64("sim.n_cores", machine_.n_cores(), "machine geometry (cores)");
  r.expect_u64("sim.n_numa", machine_.n_numa(),
               "machine geometry (NUMA domains)");
  snap::Restore v(r);
  v.object("sim", *this);
}

}  // namespace omv::sim
