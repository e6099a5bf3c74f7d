#include "bench_suite/stream_sim.hpp"

#include <cmath>

#include "bench_suite/protocol.hpp"

namespace omv::bench {

const char* stream_kernel_name(StreamKernel k) noexcept {
  switch (k) {
    case StreamKernel::copy:
      return "copy";
    case StreamKernel::mul:
      return "mul";
    case StreamKernel::add:
      return "add";
    case StreamKernel::triad:
      return "triad";
    case StreamKernel::dot:
      return "dot";
  }
  return "?";
}

const std::array<StreamKernel, 5>& all_stream_kernels() noexcept {
  static const std::array<StreamKernel, 5> kAll = {
      StreamKernel::copy, StreamKernel::mul, StreamKernel::add,
      StreamKernel::triad, StreamKernel::dot};
  return kAll;
}

double stream_bytes_per_elem(StreamKernel k) noexcept {
  switch (k) {
    case StreamKernel::copy:
    case StreamKernel::mul:
    case StreamKernel::dot:
      return 16.0;  // one read stream + one write (or second read) stream.
    case StreamKernel::add:
    case StreamKernel::triad:
      return 24.0;  // two reads + one write.
  }
  return 16.0;
}

SimStream::SimStream(sim::Simulator& simulator, ompsim::TeamConfig team_cfg,
                     std::size_t array_elems, double smt_stream_penalty)
    : sim_(&simulator),
      team_cfg_(std::move(team_cfg)),
      array_elems_(array_elems),
      smt_penalty_(smt_stream_penalty) {}

double SimStream::kernel_time_s(ompsim::SimTeam& team, StreamKernel k) {
  team.begin_rep();
  const double t0 = team.now();
  const auto& pl = team.placement();
  const std::size_t n = team.size();

  const double total_bytes =
      static_cast<double>(array_elems_) * stream_bytes_per_elem(k);
  const double bytes_per_thread = total_bytes / static_cast<double>(n);

  // Per-phase bandwidth jitter (row-buffer/prefetcher luck).
  std::vector<double> jitter(n, 1.0);
  const double sig = sim_->memory().config().jitter_sigma_log;
  if (sig > 0.0) {
    for (auto& j : jitter) {
      j = std::exp(sim_->rng().normal(-0.5 * sig * sig, sig));
    }
  }
  auto base = sim_->memory().phase_times(pl.hw, pl.data_domain,
                                         bytes_per_thread, jitter);

  // Oversubscription serializes the streams on one HW thread; SMT
  // co-scheduling costs a small constant factor (bandwidth-bound work is
  // largely SMT-neutral).
  std::vector<double> clocks(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double d = base[i] * static_cast<double>(pl.share[i]);
    if (pl.smt_coscheduled[i]) d *= smt_penalty_;
    // OS noise extends the phase (fixed-point as in Simulator::exec).
    const double start = t0;
    for (int iter = 0; iter < 6; ++iter) {
      const double delay =
          sim_->noise().preemption_delay(pl.hw[i], start, start + d);
      const double nd = base[i] * static_cast<double>(pl.share[i]) *
                            (pl.smt_coscheduled[i] ? smt_penalty_ : 1.0) +
                        delay;
      if (nd <= d + 1e-12) {
        d = nd;
        break;
      }
      d = nd;
    }
    clocks[i] = t0 + d;
  }
  team.set_clocks(clocks);
  if (k == StreamKernel::dot) {
    const double combine =
        sim_->costs().reduction_per_level *
        static_cast<double>(sim::ceil_log2(team.size()));
    team.align_clocks(team.now() + combine);
  }
  team.barrier();
  return team.now() - t0;
}

RunMatrix SimStream::run_protocol(StreamKernel k, const ExperimentSpec& spec,
                                  core::Executor& executor) {
  return run_protocol_sharded(
      *sim_, team_cfg_, spec, executor,
      [team_cfg = team_cfg_, elems = array_elems_,
       smt_penalty = smt_penalty_](sim::Simulator& sim) {
        return SimStream(sim, team_cfg, elems, smt_penalty);
      },
      [k](SimStream& bench, ompsim::SimTeam& team) {
        return bench.kernel_time_s(team, k) * 1e3;
      });
}

}  // namespace omv::bench
