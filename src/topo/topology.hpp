#pragma once
// Hardware topology model: sockets > NUMA domains > physical cores > hardware
// threads (logical CPUs). Supports heterogeneous machines: cores belong to a
// *core class* (e.g. big.LITTLE P/E clusters) with a per-class frequency
// range, and SMT width may differ per core (partially SMT-disabled nodes).
// Includes presets for the paper's two platforms.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "topo/cpuset.hpp"

namespace omv::topo {

/// One class of physical cores (homogeneous machines have exactly one).
/// The class carries everything that differs between e.g. P-cores and
/// E-cores at the topology level: a display name and the frequency range.
/// (Per-class *compute-rate* calibration is simulator state, not topology —
/// see sim::SimConfig::class_work_rate.)
struct CoreClass {
  std::string name = "core";
  double base_ghz = 2.0;
  double max_ghz = 3.0;
};

/// One hardware thread (logical CPU as the OS numbers them).
struct HwThread {
  std::size_t os_id = 0;      ///< logical CPU id.
  std::size_t core = 0;       ///< physical core id (global).
  std::size_t numa = 0;       ///< NUMA domain id (global).
  std::size_t socket = 0;     ///< socket id.
  std::size_t smt_index = 0;  ///< 0 = first hyperthread of the core, 1 = second...
  std::size_t cls = 0;        ///< core-class index (0 on homogeneous machines).
};

/// Immutable machine description.
class Machine {
 public:
  /// Builds a homogeneous machine from explicit hardware threads (all
  /// `cls` fields must be 0; one implicit class named "core" spans the
  /// frequency range). Throws std::invalid_argument on inconsistency —
  /// see the class-list constructor for the full validation contract.
  explicit Machine(std::string name, std::vector<HwThread> threads,
                   double base_ghz = 2.0, double max_ghz = 3.0);

  /// Builds a (possibly heterogeneous) machine from explicit hardware
  /// threads and the core-class table the threads' `cls` fields index.
  /// Validated exhaustively; throws std::invalid_argument naming the
  /// offending entity when
  ///   * os_ids are not dense from 0,
  ///   * a core's threads disagree on NUMA domain, socket, or class,
  ///   * a NUMA domain spans more than one socket,
  ///   * core / NUMA / socket / class ids are not dense from 0,
  ///   * smt_index values within a core are duplicated or gapped,
  ///   * a class frequency range is empty or non-positive.
  Machine(std::string name, std::vector<HwThread> threads,
          std::vector<CoreClass> classes);

  /// Generic symmetric builder: `sockets` sockets x `numa_per_socket` domains
  /// x `cores_per_numa` cores x `smt` hardware threads per core.
  /// HW-thread numbering follows the common Linux convention: all first
  /// siblings (0..cores-1) then all second siblings (cores..2*cores-1).
  static Machine uniform(std::string name, std::size_t sockets,
                         std::size_t numa_per_socket,
                         std::size_t cores_per_numa, std::size_t smt,
                         double base_ghz = 2.0, double max_ghz = 3.0);

  /// Dardel node: 2x AMD EPYC Zen2 64-core, SMT-2, quad-NUMA per socket
  /// (8 domains of 16 cores), base 2.25 GHz, boost 3.4 GHz. 128 cores,
  /// 256 HW threads. Thin wrapper over uniform(); the scenario catalog's
  /// "dardel" preset is pinned bit-identical (tests/test_scenario.cpp).
  static Machine dardel();

  /// Vera node: 2x Intel Xeon Gold 6130 16-core, no SMT, one NUMA domain per
  /// socket, base 2.1 GHz, boost 3.7 GHz. 32 cores / 32 HW threads.
  /// Thin wrapper over uniform(); mirrored by the catalog's "vera" preset.
  static Machine vera();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t n_threads() const noexcept {
    return threads_.size();
  }
  [[nodiscard]] std::size_t n_cores() const noexcept { return n_cores_; }
  [[nodiscard]] std::size_t n_numa() const noexcept { return n_numa_; }
  [[nodiscard]] std::size_t n_sockets() const noexcept { return n_sockets_; }

  /// Widest SMT of any core. The historical `smt_per_core()` returned the
  /// floor average n_threads/n_cores, which under-reports SMT on mixed
  /// machines (4 SMT-2 + 4 SMT-1 cores averaged to "1"); callers that
  /// gated SMT-aware behaviour on it silently treated such machines as
  /// SMT-free. Use smt_of_core() for per-core decisions.
  [[nodiscard]] std::size_t max_smt_per_core() const noexcept {
    return max_smt_;
  }
  /// Number of HW threads of physical core `core`. Throws std::out_of_range
  /// for ids >= n_cores().
  [[nodiscard]] std::size_t smt_of_core(std::size_t core) const {
    return smt_of_core_.at(core);
  }

  /// Lowest class base frequency (homogeneous machines: the base clock).
  [[nodiscard]] double base_ghz() const noexcept { return base_ghz_; }
  /// Highest class boost frequency (homogeneous machines: the max clock).
  [[nodiscard]] double max_ghz() const noexcept { return max_ghz_; }

  /// Core classes (size 1 on homogeneous machines).
  [[nodiscard]] const std::vector<CoreClass>& classes() const noexcept {
    return classes_;
  }
  /// Class index of physical core `core`. Throws std::out_of_range for ids
  /// >= n_cores().
  [[nodiscard]] std::size_t core_class(std::size_t core) const {
    return core_class_.at(core);
  }
  [[nodiscard]] double core_max_ghz(std::size_t core) const {
    return classes_[core_class(core)].max_ghz;
  }

  /// Hardware thread by OS id.
  [[nodiscard]] const HwThread& thread(std::size_t os_id) const {
    return threads_.at(os_id);
  }
  [[nodiscard]] const std::vector<HwThread>& threads() const noexcept {
    return threads_;
  }

  /// All HW threads of physical core `core`.
  [[nodiscard]] CpuSet core_threads(std::size_t core) const;
  /// All HW threads of NUMA domain `numa`.
  [[nodiscard]] CpuSet numa_threads(std::size_t numa) const;
  /// All HW threads of socket `socket`.
  [[nodiscard]] CpuSet socket_threads(std::size_t socket) const;
  /// All HW threads.
  [[nodiscard]] CpuSet all_threads() const;
  /// First-sibling HW threads only (one per physical core) — the ST pool.
  [[nodiscard]] CpuSet primary_threads() const;

  /// Physical core ids with at least `min_smt` HW threads, ascending —
  /// the eligible pool for SMT contrasts on mixed machines.
  [[nodiscard]] std::vector<std::size_t> cores_with_smt(
      std::size_t min_smt) const;
  /// Physical core ids of NUMA domain `numa`, ascending.
  [[nodiscard]] std::vector<std::size_t> cores_in_numa(
      std::size_t numa) const;

  /// The SMT sibling of `os_id` on the same core: the first other HW
  /// thread of the core in os_id order (nullopt if the core has a single
  /// HW thread). O(1); throws std::out_of_range for ids >= n_threads().
  [[nodiscard]] std::optional<std::size_t> sibling(std::size_t os_id) const {
    const std::size_t s = sibling_.at(os_id);
    if (s == kNoSibling) return std::nullopt;
    return s;
  }

 private:
  void validate_and_index();

  std::string name_;
  std::vector<HwThread> threads_;
  std::vector<CoreClass> classes_;
  std::size_t n_cores_ = 0;
  std::size_t n_numa_ = 0;
  std::size_t n_sockets_ = 0;
  std::size_t max_smt_ = 0;
  std::vector<std::size_t> smt_of_core_;  ///< per-core HW-thread count.
  std::vector<std::size_t> core_class_;   ///< per-core class index.
  static constexpr std::size_t kNoSibling = static_cast<std::size_t>(-1);
  std::vector<std::size_t> sibling_;  ///< per-HW-thread sibling() answer.
  double base_ghz_;
  double max_ghz_;
};

}  // namespace omv::topo
