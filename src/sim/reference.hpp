#pragma once
// Brute-force reference queries over the event-stream models.
//
// These are the plain O(events) forms of NoiseModel::preemption_delay and
// FreqModel::factor/mean_factor/elapsed_for_work: the noise sum walks every
// event of the window, the frequency integral visits every episode of the
// domain. They are the oracle of the differential tests, which require the
// production queries to return exactly the same doubles over randomized
// event/episode sets and windows at every density.
//
// The reference functions are pure queries: they read the models' already
// materialized state (event_times()/episode_starts() and friends) and never
// extend the horizon. Callers must materialize_to() past every queried time
// first — the generation side is shared with the production queries and is
// not under test here. Misuse fails loudly: querying past the model's
// materialized_horizon() throws std::logic_error instead of silently
// reading an event-free future.

#include <cstddef>

#include "sim/freq.hpp"
#include "sim/noise.hpp"
#include "topo/topology.hpp"

namespace omv::sim::reference {

/// preemption_delay: analytic tick term plus a lower_bound and a linear scan
/// over every event of HW thread `h` inside [t0, t1).
/// Requires m.materialize_to(t1) to have happened.
[[nodiscard]] double preemption_delay(const NoiseModel& m,
                                      const topo::Machine& machine,
                                      std::size_t h, double t0, double t1);

/// mean_factor: full scan over every episode of the core's NUMA domain.
/// Requires m.materialize_to(t1) to have happened.
[[nodiscard]] double mean_factor(FreqModel& m, std::size_t core, double t0,
                                 double t1);

/// factor (instantaneous, no jitter): full scan over the domain's
/// episodes. Requires m.materialize_to(t) to have happened.
[[nodiscard]] double factor(FreqModel& m, std::size_t core, double t);

/// elapsed_for_work: the same fixed-point iteration over the brute-force
/// mean_factor. Requires the episode horizon to already cover every window
/// the iteration can visit (t0 + 10·work is always enough, since mean
/// factors are clamped to >= 0.1).
[[nodiscard]] double elapsed_for_work(FreqModel& m, std::size_t core,
                                      double t0, double work);

}  // namespace omv::sim::reference
