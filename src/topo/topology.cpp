#include "topo/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace omv::topo {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("Machine: " + what);
}

std::string id_str(std::size_t v) { return std::to_string(v); }

}  // namespace

Machine::Machine(std::string name, std::vector<HwThread> threads,
                 double base_ghz, double max_ghz)
    : Machine(std::move(name), std::move(threads),
              {CoreClass{"core", base_ghz, max_ghz}}) {}

Machine::Machine(std::string name, std::vector<HwThread> threads,
                 std::vector<CoreClass> classes)
    : name_(std::move(name)),
      threads_(std::move(threads)),
      classes_(std::move(classes)),
      base_ghz_(0.0),
      max_ghz_(0.0) {
  validate_and_index();
}

void Machine::validate_and_index() {
  if (threads_.empty()) fail("no hardware threads");
  if (classes_.empty()) fail("no core classes");
  for (const CoreClass& c : classes_) {
    if (c.base_ghz <= 0.0 || c.max_ghz < c.base_ghz) {
      fail("invalid frequency range for class '" + c.name + "' (" +
           std::to_string(c.base_ghz) + "-" + std::to_string(c.max_ghz) +
           " GHz)");
    }
  }
  base_ghz_ = classes_.front().base_ghz;
  max_ghz_ = classes_.front().max_ghz;
  for (const CoreClass& c : classes_) {
    base_ghz_ = std::min(base_ghz_, c.base_ghz);
    max_ghz_ = std::max(max_ghz_, c.max_ghz);
  }

  std::sort(threads_.begin(), threads_.end(),
            [](const HwThread& a, const HwThread& b) {
              return a.os_id < b.os_id;
            });
  std::size_t max_core = 0;
  std::size_t max_numa = 0;
  std::size_t max_socket = 0;
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const HwThread& t = threads_[i];
    if (t.os_id != i) fail("os_ids must be dense from 0");
    if (t.cls >= classes_.size()) {
      fail("thread " + id_str(t.os_id) + " names core class " +
           id_str(t.cls) + " but only " + id_str(classes_.size()) +
           " class(es) are defined");
    }
    // Dense id spaces are subsets of [0, n_threads); rejecting wild ids
    // up front bounds every validation table to O(n_threads) — a
    // SIZE_MAX smt_index must produce this error, not a wrapped resize
    // and out-of-bounds write, and a ~2^40 core id must not allocate a
    // 2^40-entry table before the density check can fail.
    if (t.core >= threads_.size() || t.numa >= threads_.size() ||
        t.socket >= threads_.size() || t.smt_index >= threads_.size()) {
      fail("thread " + id_str(t.os_id) +
           " carries an id outside the dense range (core " +
           id_str(t.core) + ", numa " + id_str(t.numa) + ", socket " +
           id_str(t.socket) + ", smt_index " + id_str(t.smt_index) +
           " must all be < " + id_str(threads_.size()) + ")");
    }
    max_core = std::max(max_core, t.core);
    max_numa = std::max(max_numa, t.numa);
    max_socket = std::max(max_socket, t.socket);
  }
  n_cores_ = max_core + 1;
  n_numa_ = max_numa + 1;
  n_sockets_ = max_socket + 1;

  // Per-core consistency: every HW thread of a core must agree on the
  // core's NUMA domain, socket and class, and the smt_index values must
  // form 0..k-1 with no duplicates. kNone marks a core not seen yet.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> core_numa(n_cores_, kNone);
  std::vector<std::size_t> core_socket(n_cores_, kNone);
  core_class_.assign(n_cores_, kNone);
  smt_of_core_.assign(n_cores_, 0);
  std::vector<std::size_t> core_max_smt(n_cores_, 0);
  std::vector<std::vector<bool>> smt_seen(n_cores_);
  for (const HwThread& t : threads_) {
    if (core_numa[t.core] == kNone) {
      core_numa[t.core] = t.numa;
      core_socket[t.core] = t.socket;
      core_class_[t.core] = t.cls;
    } else {
      if (core_numa[t.core] != t.numa) {
        fail("core " + id_str(t.core) + " spans NUMA domains " +
             id_str(core_numa[t.core]) + " and " + id_str(t.numa));
      }
      if (core_socket[t.core] != t.socket) {
        fail("core " + id_str(t.core) + " spans sockets " +
             id_str(core_socket[t.core]) + " and " + id_str(t.socket));
      }
      if (core_class_[t.core] != t.cls) {
        fail("core " + id_str(t.core) + " mixes core classes " +
             id_str(core_class_[t.core]) + " and " + id_str(t.cls));
      }
    }
    auto& seen = smt_seen[t.core];
    if (t.smt_index >= seen.size()) seen.resize(t.smt_index + 1, false);
    if (seen[t.smt_index]) {
      fail("duplicate smt_index " + id_str(t.smt_index) + " on core " +
           id_str(t.core));
    }
    seen[t.smt_index] = true;
    ++smt_of_core_[t.core];
    core_max_smt[t.core] = std::max(core_max_smt[t.core], t.smt_index);
  }
  std::vector<bool> class_used(classes_.size(), false);
  max_smt_ = 0;
  for (std::size_t core = 0; core < n_cores_; ++core) {
    if (core_numa[core] == kNone) {
      fail("core ids must be dense from 0 (core " + id_str(core) +
           " has no hardware threads)");
    }
    class_used[core_class_[core]] = true;
    // Duplicates were rejected above, so count == max+1 iff 0..max are all
    // present — a gap means e.g. smt_index {0, 2}.
    if (smt_of_core_[core] != core_max_smt[core] + 1) {
      fail("smt_index values on core " + id_str(core) +
           " are not dense from 0");
    }
    max_smt_ = std::max(max_smt_, smt_of_core_[core]);
  }
  for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
    if (!class_used[cls]) {
      fail("core class " + id_str(cls) + " ('" + classes_[cls].name +
           "') has no cores");
    }
  }

  // NUMA domains nest inside sockets; both id spaces must be dense.
  std::vector<std::size_t> numa_socket(n_numa_, kNone);
  std::vector<bool> socket_seen(n_sockets_, false);
  for (const HwThread& t : threads_) {
    if (numa_socket[t.numa] == kNone) {
      numa_socket[t.numa] = t.socket;
    } else if (numa_socket[t.numa] != t.socket) {
      fail("NUMA domain " + id_str(t.numa) + " spans sockets " +
           id_str(numa_socket[t.numa]) + " and " + id_str(t.socket));
    }
    socket_seen[t.socket] = true;
  }
  for (std::size_t d = 0; d < n_numa_; ++d) {
    if (numa_socket[d] == kNone) {
      fail("NUMA ids must be dense from 0 (domain " + id_str(d) +
           " has no hardware threads)");
    }
  }
  for (std::size_t s = 0; s < n_sockets_; ++s) {
    if (!socket_seen[s]) {
      fail("socket ids must be dense from 0 (socket " + id_str(s) +
           " has no hardware threads)");
    }
  }

  // sibling(h) is the first other HW thread of h's core in os_id order:
  // the core's first thread, or its second when h is the first (threads_
  // is sorted by os_id).
  std::vector<std::size_t> first(n_cores_, kNoSibling);
  std::vector<std::size_t> second(n_cores_, kNoSibling);
  for (const HwThread& t : threads_) {
    if (first[t.core] == kNoSibling) {
      first[t.core] = t.os_id;
    } else if (second[t.core] == kNoSibling) {
      second[t.core] = t.os_id;
    }
  }
  sibling_.resize(threads_.size());
  for (const HwThread& t : threads_) {
    sibling_[t.os_id] =
        first[t.core] == t.os_id ? second[t.core] : first[t.core];
  }
}

Machine Machine::uniform(std::string name, std::size_t sockets,
                         std::size_t numa_per_socket,
                         std::size_t cores_per_numa, std::size_t smt,
                         double base_ghz, double max_ghz) {
  if (sockets == 0 || numa_per_socket == 0 || cores_per_numa == 0 ||
      smt == 0) {
    throw std::invalid_argument("Machine::uniform: zero-sized dimension");
  }
  const std::size_t n_cores = sockets * numa_per_socket * cores_per_numa;
  std::vector<HwThread> threads;
  threads.reserve(n_cores * smt);
  for (std::size_t s = 0; s < smt; ++s) {
    for (std::size_t core = 0; core < n_cores; ++core) {
      HwThread t;
      t.os_id = s * n_cores + core;
      t.core = core;
      t.numa = core / cores_per_numa;
      t.socket = t.numa / numa_per_socket;
      t.smt_index = s;
      threads.push_back(t);
    }
  }
  return Machine(std::move(name), std::move(threads), base_ghz, max_ghz);
}

Machine Machine::dardel() {
  return uniform("dardel", /*sockets=*/2, /*numa_per_socket=*/4,
                 /*cores_per_numa=*/16, /*smt=*/2, /*base_ghz=*/2.25,
                 /*max_ghz=*/3.4);
}

Machine Machine::vera() {
  return uniform("vera", /*sockets=*/2, /*numa_per_socket=*/1,
                 /*cores_per_numa=*/16, /*smt=*/1, /*base_ghz=*/2.1,
                 /*max_ghz=*/3.7);
}

CpuSet Machine::core_threads(std::size_t core) const {
  CpuSet s;
  for (const auto& t : threads_) {
    if (t.core == core) s.add(t.os_id);
  }
  return s;
}

CpuSet Machine::numa_threads(std::size_t numa) const {
  CpuSet s;
  for (const auto& t : threads_) {
    if (t.numa == numa) s.add(t.os_id);
  }
  return s;
}

CpuSet Machine::socket_threads(std::size_t socket) const {
  CpuSet s;
  for (const auto& t : threads_) {
    if (t.socket == socket) s.add(t.os_id);
  }
  return s;
}

CpuSet Machine::all_threads() const {
  CpuSet s;
  for (const auto& t : threads_) s.add(t.os_id);
  return s;
}

CpuSet Machine::primary_threads() const {
  CpuSet s;
  for (const auto& t : threads_) {
    if (t.smt_index == 0) s.add(t.os_id);
  }
  return s;
}

std::vector<std::size_t> Machine::cores_with_smt(std::size_t min_smt) const {
  std::vector<std::size_t> out;
  for (std::size_t core = 0; core < n_cores_; ++core) {
    if (smt_of_core_[core] >= min_smt) out.push_back(core);
  }
  return out;
}

std::vector<std::size_t> Machine::cores_in_numa(std::size_t numa) const {
  std::vector<std::size_t> out;
  std::vector<bool> seen(n_cores_, false);
  for (const auto& t : threads_) {
    if (t.numa == numa && !seen[t.core]) {
      seen[t.core] = true;
      out.push_back(t.core);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace omv::topo
