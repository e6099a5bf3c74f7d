#pragma once
// Declarative platform scenarios.
//
// The paper contrasts one R×K protocol across two concrete machines
// (Dardel and Vera). This layer turns platform identity into *data*: a
// ScenarioSpec bundles the machine geometry with every simulator profile
// (noise, frequency, memory, runtime costs) into one named, serializable
// value with a canonical fingerprint, so the same campaign can sweep the
// protocol across an open-ended catalog of machines — built-in presets,
// or user-authored scenario files (see registry.hpp).
//
// Geometry comes in two flavors:
//   * v1 (symmetric): the uniform-builder parameters — sockets x NUMA x
//     cores x SMT with one frequency range;
//   * v2 (asymmetric): a list of *node groups* ([group <name>] stanzas in
//     the file format), each contributing its own sockets/NUMA domains/
//     cores with per-group SMT width, frequency range and relative
//     compute speed (work_rate). Groups compose into one heterogeneous
//     topo::Machine via the explicit-thread-table constructor: big.LITTLE
//     splits, partially SMT-disabled nodes and lopsided NUMA domains are
//     all expressible as data.
//
// The fingerprint is a SpecKey over every physical field in a fixed order;
// it feeds the campaign result cache so cells simulated under one scenario
// can never be served to another (two scenarios that differ in any knob
// hash apart, even if they share a display name).

#include <cstddef>
#include <string>
#include <vector>

#include "core/spec_hash.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"

namespace omv::scenario {

/// One node group of an asymmetric machine: `sockets` fresh sockets (or a
/// pin onto an existing socket), each holding `numa` fresh NUMA domains of
/// `cores` cores with `smt` HW threads per core. The group is a topo core
/// class: its name, frequency range and relative compute speed ride on
/// every core it contributes.
struct NodeGroupSpec {
  /// Marks `socket` as "allocate fresh sockets" (the default).
  static constexpr std::size_t kFreshSocket = static_cast<std::size_t>(-1);

  std::string name;           ///< class name, e.g. "P" / "E".
  std::size_t sockets = 1;    ///< fresh sockets this group spans.
  std::size_t numa = 1;       ///< NUMA domains per socket.
  std::size_t cores = 1;      ///< cores per NUMA domain.
  std::size_t smt = 1;        ///< HW threads per core.
  double base_ghz = 2.0;
  double max_ghz = 3.0;
  /// Relative compute speed (1.0 = nominal; an E-core at 0.6 takes 1/0.6
  /// the time for the same work). Feeds sim::SimConfig::class_work_rate.
  double work_rate = 1.0;
  /// When != kFreshSocket: place the group's NUMA domains on this existing
  /// socket id (earlier groups must have created it; `sockets` must stay
  /// 1). This is how a big.LITTLE machine keeps both clusters on one die.
  std::size_t socket = kFreshSocket;

  [[nodiscard]] bool socket_pinned() const noexcept {
    return socket != kFreshSocket;
  }
  [[nodiscard]] std::size_t n_cores() const noexcept {
    return (socket_pinned() ? 1 : sockets) * numa * cores;
  }
  [[nodiscard]] std::size_t n_threads() const noexcept {
    return n_cores() * smt;
  }

  bool operator==(const NodeGroupSpec&) const = default;
};

/// Machine geometry as data. With `groups` empty this is exactly the
/// arguments of topo::Machine::uniform (the v1 symmetric format, and the
/// only shape the catalog's original presets use); with `groups` set the
/// uniform fields are ignored and the groups compose into one asymmetric
/// machine (the v2 format).
struct MachineSpec {
  std::string label = "machine";  ///< topo::Machine name.
  std::size_t sockets = 1;
  std::size_t numa_per_socket = 1;
  std::size_t cores_per_numa = 4;
  std::size_t smt = 1;
  double base_ghz = 2.0;
  double max_ghz = 3.0;
  /// v2 node groups; empty = symmetric uniform machine.
  std::vector<NodeGroupSpec> groups;

  /// Largest machine build() materializes, in HW threads: far above every
  /// catalog and test machine (Dardel has 256), so a larger geometry is a
  /// typo or a wrapped product and is rejected before anything is
  /// allocated.
  static constexpr std::size_t kMaxHwThreads = 65536;

  /// Materializes the geometry. Throws std::invalid_argument on zero-sized
  /// dimensions, more than kMaxHwThreads HW threads (however large the
  /// dimensions' product, wrapped or not), an invalid frequency range, a
  /// non-positive work_rate, a duplicate/empty group name, or a socket pin
  /// that does not reference a socket created by an earlier group.
  [[nodiscard]] topo::Machine build() const;

  /// Per-class relative compute speeds (one entry per group, in group
  /// order; empty for symmetric machines) — the sim::SimConfig::
  /// class_work_rate value matching build()'s class table.
  [[nodiscard]] std::vector<double> class_work_rates() const;

  [[nodiscard]] bool asymmetric() const noexcept { return !groups.empty(); }

  [[nodiscard]] std::size_t n_cores() const noexcept {
    if (groups.empty()) return sockets * numa_per_socket * cores_per_numa;
    std::size_t n = 0;
    for (const auto& g : groups) n += g.n_cores();
    return n;
  }
  [[nodiscard]] std::size_t n_threads() const noexcept {
    if (groups.empty()) return n_cores() * smt;
    std::size_t n = 0;
    for (const auto& g : groups) n += g.n_threads();
    return n;
  }

  /// Field-wise: the same label and the same geometry.
  bool operator==(const MachineSpec&) const = default;
};

/// One named platform scenario: geometry + the full simulator calibration.
struct ScenarioSpec {
  std::string name;         ///< catalog key, e.g. "dardel".
  std::string display;      ///< harness-output name, e.g. "Dardel".
  std::string description;  ///< one line for --scenarios listings.
  MachineSpec machine;
  sim::SimConfig sim;  ///< noise + freq + mem + costs bundle.
  /// Frequency profile of an *active-DVFS session* on this platform — the
  /// paper's Figs. 6/7 were measured during Vera sessions with far more
  /// dip pressure than its baseline profile. Harnesses that reproduce
  /// those figures swap sim.freq for this.
  sim::FreqConfig freq_session;

  /// Canonical fingerprint key over every physical field (name, display,
  /// geometry — including every node group — and all model parameters) in
  /// a fixed order. Symmetric scenarios hash exactly as they did before
  /// node groups existed.
  [[nodiscard]] SpecKey key() const;

  /// key().hex(): 16 lowercase hex digits naming this scenario's physics.
  [[nodiscard]] std::string fingerprint() const { return key().hex(); }

  /// Serializes to the scenario-file format (parse_text round-trips it to
  /// an identical fingerprint). Doubles are shortest-round-trip. Node
  /// groups serialize as trailing [group <name>] stanzas; the uniform
  /// machine.* geometry keys are omitted when groups are present (the two
  /// cannot be mixed in one file).
  [[nodiscard]] std::string to_text() const;

  /// One-line geometry summary, e.g.
  /// "2 sockets x 4 NUMA x 16 cores x SMT-2, 2.25-3.4 GHz" or, for v2,
  /// "[P] 1 socket x 1 NUMA x 4 cores x SMT-2, 2.5-3.8 GHz + [E] ...".
  [[nodiscard]] std::string geometry_summary() const;
};

/// Parses the scenario-file format:
///
///   # comment
///   name = my-box            (required unless inherited via base)
///   display = MyBox          (defaults to name)
///   base = dardel            (optional: start from a catalog preset)
///   machine.sockets = 1
///   noise.daemon_rate = 200
///   freq_session.episode_rate = 0.5
///   ...
///   [group P]                (v2: asymmetric machines; stanzas last)
///   numa = 1
///   cores = 4
///   smt = 2
///   base_ghz = 2.5
///   max_ghz = 3.8
///   work_rate = 1
///   [group E]
///   socket = 0               (pin onto socket 0 — same die as P)
///   cores = 4
///   ...
///
/// Unknown keys, malformed numbers, duplicate assignments and a global
/// numeric value outside its domain throw std::runtime_error naming
/// `origin`, the line and the key. Every such value must be finite and
/// >= 0; `noise.degrade_prob` and `freq{,_session}.run_cap_prob` lie in
/// [0, 1], and `freq{,_session}.depth_lo`, `.depth_hi` and
/// `.run_cap_depth` in (0, 1]. `base` must appear
/// before any overridden field. Group stanzas must follow every global
/// key; the first stanza replaces any machine geometry inherited via
/// `base`, and mixing explicit machine.* geometry keys with stanzas in
/// one file is an error.
[[nodiscard]] ScenarioSpec parse_text(const std::string& text,
                                      const std::string& origin);

}  // namespace omv::scenario
