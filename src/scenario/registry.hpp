#pragma once
// Scenario catalog: built-in platform presets plus user scenario files.
//
// The built-ins pin the paper's two machines — "dardel" and "vera" are
// bit-identical to the legacy topo::Machine / sim::*Config factory bundles
// (tests/test_scenario.cpp pins the equivalence field by field) — and add
// presets that exercise regimes the paper never measured: a single-socket
// EPYC-like quad-NUMA SMT-2 box, a preemption-heavy cloud node, a quiet
// tuned HPC node, a DVFS-unstable machine with deep frequency dips, and
// two *asymmetric* node-group machines ("biglittle" 4P+4E mixed-SMT,
// "lopsided-numa" 12c+4c uneven domains).
//
// Selection is threaded through the campaign driver as
// `--scenario NAME-OR-FILE`: a catalog name resolves here; anything that
// looks like a path (contains '/' or '.') loads a scenario file
// (scenario.hpp's key=value format).

#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace omv::scenario {

/// Immutable process-wide scenario catalog (name-sorted).
class ScenarioRegistry {
 public:
  static const ScenarioRegistry& instance();

  /// Scenario by name. Throws std::out_of_range (message lists the
  /// catalog) when absent.
  [[nodiscard]] const ScenarioSpec& get(const std::string& name) const;

  /// Scenario by name; nullptr when absent.
  [[nodiscard]] const ScenarioSpec* find(const std::string& name) const
      noexcept;

  /// All built-in scenarios, sorted by name.
  [[nodiscard]] const std::vector<ScenarioSpec>& all() const noexcept {
    return scenarios_;
  }

  /// Comma-separated catalog names (error messages, usage text).
  [[nodiscard]] std::string names() const;

 private:
  ScenarioRegistry();
  std::vector<ScenarioSpec> scenarios_;
};

/// Loads a scenario file. Throws std::runtime_error on I/O or parse errors.
[[nodiscard]] ScenarioSpec load_file(const std::string& path);

/// Resolves a --scenario value: a catalog name when it matches one, else a
/// scenario-file path when the value contains '/' or '.'; anything else
/// throws std::runtime_error listing the catalog.
[[nodiscard]] ScenarioSpec resolve(const std::string& name_or_path);

}  // namespace omv::scenario
