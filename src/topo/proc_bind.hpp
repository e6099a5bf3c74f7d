#pragma once
// OMP_PROC_BIND thread-to-place assignment (OpenMP 5.0 §2.6.2).
//
// Implements the `close`, `spread` and `primary` policies plus `none`
// (unbound). The simulator's teams place their threads through this
// mapping, so pinning experiments exercise the OpenMP 5.0 assignment rules
// rather than an ad-hoc placement.

#include <cstddef>
#include <vector>

#include "topo/places.hpp"

namespace omv::topo {

/// Binding policy. `none` leaves threads unbound (the paper's
/// "before thread-pinning" configuration, where the OS may migrate them).
enum class ProcBind { none, close, spread, primary };

/// Assignment of OpenMP threads to places: result[i] is the index into the
/// place list for OpenMP thread i. Empty when the policy is `none`.
using ThreadPlaceMap = std::vector<std::size_t>;

/// Computes the place index of each of `n_threads` OpenMP threads under the
/// given policy, starting from the place containing the primary thread
/// (`primary_place`, index into `places`).
///
/// Semantics follow the spec:
///  * close, T <= P : thread i -> place (primary + i) mod P.
///  * close, T >  P : consecutive threads share places, each place receiving
///    floor(T/P) or ceil(T/P) threads.
///  * spread, T <= P: places are divided into T contiguous subpartitions;
///    thread i is bound to the first place of subpartition i.
///  * spread, T >  P: equivalent to close for the assignment (each place is
///    its own subpartition with ceil(T/P)/floor(T/P) threads).
///  * primary      : every thread binds to `primary_place`.
[[nodiscard]] ThreadPlaceMap assign_places(std::size_t n_threads,
                                           const PlaceList& places,
                                           ProcBind policy,
                                           std::size_t primary_place = 0);

/// Convenience: resolves each OpenMP thread to the CpuSet it may run on.
/// For `none`, every thread receives `machine.all_threads()`.
[[nodiscard]] std::vector<CpuSet> thread_affinities(
    std::size_t n_threads, const PlaceList& places, ProcBind policy,
    const Machine& machine, std::size_t primary_place = 0);

}  // namespace omv::topo
