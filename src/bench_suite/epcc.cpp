#include "bench_suite/epcc.hpp"

#include <algorithm>

namespace omv::bench {

const std::vector<SyncConstruct>& all_sync_constructs() {
  static const std::vector<SyncConstruct> kAll = {
      SyncConstruct::parallel, SyncConstruct::for_,
      SyncConstruct::barrier,  SyncConstruct::single,
      SyncConstruct::critical, SyncConstruct::lock,
      SyncConstruct::ordered,  SyncConstruct::atomic,
      SyncConstruct::reduction};
  return kAll;
}

const char* sync_construct_name(SyncConstruct c) noexcept {
  switch (c) {
    case SyncConstruct::parallel:
      return "parallel";
    case SyncConstruct::for_:
      return "for";
    case SyncConstruct::barrier:
      return "barrier";
    case SyncConstruct::single:
      return "single";
    case SyncConstruct::critical:
      return "critical";
    case SyncConstruct::lock:
      return "lock";
    case SyncConstruct::ordered:
      return "ordered";
    case SyncConstruct::atomic:
      return "atomic";
    case SyncConstruct::reduction:
      return "reduction";
  }
  return "?";
}

std::size_t calibrate_innerreps(double instance_time_us, double test_time_us) {
  if (instance_time_us <= 0.0) return 1000;
  const double reps = test_time_us / instance_time_us;
  return std::clamp<std::size_t>(static_cast<std::size_t>(reps), 1, 1000000);
}

}  // namespace omv::bench
