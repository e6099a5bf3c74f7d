#include "topo/proc_bind.hpp"

#include <stdexcept>

namespace omv::topo {

ThreadPlaceMap assign_places(std::size_t n_threads, const PlaceList& places,
                             ProcBind policy, std::size_t primary_place) {
  if (policy == ProcBind::none) return {};
  const std::size_t P = places.size();
  if (P == 0) throw std::invalid_argument("assign_places: empty place list");
  if (primary_place >= P) {
    throw std::invalid_argument("assign_places: primary place out of range");
  }
  ThreadPlaceMap map(n_threads, primary_place);
  if (n_threads == 0) return map;

  switch (policy) {
    case ProcBind::primary:
      break;  // all threads already at primary_place.
    case ProcBind::close: {
      if (n_threads <= P) {
        for (std::size_t i = 0; i < n_threads; ++i) {
          map[i] = (primary_place + i) % P;
        }
      } else {
        // Each place receives floor(T/P) or ceil(T/P) consecutive threads;
        // the first T mod P places receive the extra thread.
        const std::size_t base = n_threads / P;
        const std::size_t rem = n_threads % P;
        std::size_t t = 0;
        for (std::size_t p = 0; p < P; ++p) {
          const std::size_t take = base + (p < rem ? 1 : 0);
          for (std::size_t k = 0; k < take; ++k) {
            map[t++] = (primary_place + p) % P;
          }
        }
      }
      break;
    }
    case ProcBind::spread: {
      if (n_threads <= P) {
        // Partition P places into T contiguous subpartitions; thread i gets
        // the first place of subpartition i.
        const std::size_t base = P / n_threads;
        const std::size_t rem = P % n_threads;
        std::size_t start = 0;
        for (std::size_t i = 0; i < n_threads; ++i) {
          map[i] = (primary_place + start) % P;
          start += base + (i < rem ? 1 : 0);
        }
      } else {
        // T > P: same distribution as close.
        return assign_places(n_threads, places, ProcBind::close,
                             primary_place);
      }
      break;
    }
    case ProcBind::none:
      break;
  }
  return map;
}

std::vector<CpuSet> thread_affinities(std::size_t n_threads,
                                      const PlaceList& places, ProcBind policy,
                                      const Machine& machine,
                                      std::size_t primary_place) {
  std::vector<CpuSet> out;
  out.reserve(n_threads);
  if (policy == ProcBind::none) {
    const CpuSet all = machine.all_threads();
    for (std::size_t i = 0; i < n_threads; ++i) out.push_back(all);
    return out;
  }
  const auto map = assign_places(n_threads, places, policy, primary_place);
  for (std::size_t i = 0; i < n_threads; ++i) out.push_back(places[map[i]]);
  return out;
}

}  // namespace omv::topo
