#pragma once
// Campaign execution context: the artifact + result-cache layer under every
// harness.
//
// A RunContext is handed to each harness's run function. It provides:
//   * executor() — the process's one worker pool (--jobs), onto which
//     protocol runs are sharded;
//   * protocol() — cached protocol execution: each run_protocol invocation
//     is keyed by a canonical spec fingerprint (harness, label, seed, runs,
//     reps, warmup, benchmark config); its RunMatrix persists as
//     <out>/cache/<hash>.csv with the canonical key in <hash>.key, so a
//     re-invocation loads the bit-identical matrix instead of recomputing
//     (the CSV stores 17-significant-digit times — a lossless double
//     round-trip);
//   * series()/table()/verdict()/metric() — print exactly what the
//     pre-campaign harnesses printed, additionally recording the data for
//     the JSON artifact.
//
// Artifacts: <out>/<harness>.json holds the science (cells, series at
// full precision, tables, metrics, verdicts) and is byte-stable across
// cached re-runs provided the harness records only deterministic data —
// every registered harness does. Wall-clock timing and cache provenance go
// to <out>/campaign.json, which is expected to differ between invocations.
//
// The cache validates the stored canonical key on every hit (collision /
// stale-key defense) and falls back to recomputing — a cache can never
// make a campaign wrong, only faster. Every .key commit file additionally
// opens with a cache schema stamp (kCacheKeySchema): entries written by a
// different cache/simulator generation fail the stamp check and degrade to
// a recompute instead of silently serving stale cells. Bump the stamp
// whenever model changes invalidate archived RunMatrix data.
//
// Scenario threading: when a --scenario selection is active, the resolved
// ScenarioSpec rides on the RunContext; harnesses run on it instead of
// the paper's Dardel+Vera pair, and its fingerprint is folded into every
// cell key (via harness::cell_key), so cached cells can never be served
// across platforms.
//
// Campaign scheduling: every (harness, scenario) unit is one task on the
// executor, and the protocol runs of its cells are tasks on the same pool.
// Each unit's science stdout is captured into a private buffer
// (set_output_capture) and replayed in registry x scenario order once the
// unit and all units before it finish — stdout, artifacts and cache
// contents are byte-identical at every --jobs width. At --jobs > 1 units
// are submitted longest enumerated cost first: an enumeration pass
// (ContextMode::kEnumerate) discovers every cell's spec hash and cost
// without computing — protocol() records the plan and returns a
// placeholder matrix, and all output is discarded.

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli/exit_codes.hpp"
#include "cli/supervisor.hpp"
#include "core/executor.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/run_matrix.hpp"
#include "core/spec_hash.hpp"
#include "scenario/scenario.hpp"

namespace omv::cli {

/// Cache generation stamp: the first line of every cache .key commit file.
/// Entries missing it (pre-stamp caches) or carrying another generation
/// are ignored and recomputed.
inline constexpr std::string_view kCacheKeySchema = "omnivar-cache-v2";

/// Simulator-engine generation, absorbed into every cell's SpecKey (and
/// therefore its hash): bump it whenever a model/code change alters what
/// any cached RunMatrix would contain, and every pre-bump cache dir
/// degrades to a recompute instead of serving stale cells. This closes
/// the remaining PR 2 hazard — the platform axis was versioned by the
/// scenario fingerprint, the simulator code itself was not.
inline constexpr std::string_view kEngineVersion = "omnivar-engine-v5";

/// Effective engine version: OMNIVAR_ENGINE_VERSION when set (a test hook
/// so cache-invalidation behaviour is testable without rebuilding), else
/// kEngineVersion.
[[nodiscard]] std::string_view engine_version();

/// Provenance of one cached protocol cell.
struct CellRecord {
  std::string label;
  std::string hash;       ///< 16-hex spec hash (cache file stem).
  std::uint64_t seed = 0;
  std::size_t runs = 0;
  std::size_t reps = 0;
  std::size_t warmup = 0;
  bool cached = false;    ///< served from cache this invocation.
};

struct VerdictRecord {
  bool ok = false;
  std::string text;
};

struct SeriesRecord {
  std::string name;
  std::string x_name;
  std::vector<std::string> columns;
  std::vector<std::pair<double, std::vector<double>>> points;
};

struct TableRecord {
  std::string name;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

struct MetricRecord {
  std::string name;
  double value = 0.0;
};

/// One protocol cell declared during an enumeration pass: the exact spec
/// hash a serial execution would compute under, plus a cost hint
/// (runs x (warmup + reps)) ordering units longest first at --jobs > 1.
struct CellPlan {
  std::string label;
  std::string hash;
  double cost = 0.0;
};

/// How a RunContext treats protocol() calls.
enum class ContextMode {
  kExecute,    ///< normal: cache lookup / supervised compute.
  kEnumerate,  ///< declare-only: record CellPlan, return a placeholder.
};

class RunContext {
 public:
  /// `executor` runs the harness's protocol runs and must outlive the
  /// context. `out_dir` empty disables artifacts and caching. `scenario`
  /// engaged = run on that platform instead of the paper's Dardel+Vera
  /// default (harnesses read it via scenario()).
  RunContext(std::string harness, core::Executor& executor,
             std::string out_dir,
             std::optional<scenario::ScenarioSpec> scenario = std::nullopt,
             ContextMode mode = ContextMode::kExecute);

  /// The worker pool protocol runs are sharded onto.
  [[nodiscard]] core::Executor& executor() const noexcept {
    return executor_;
  }

  /// True on an enumeration pass: protocol() records cells without
  /// computing and every print is discarded.
  [[nodiscard]] bool enumerating() const noexcept {
    return mode_ == ContextMode::kEnumerate;
  }

  /// Cells declared by protocol() during an enumeration pass, in call
  /// order — exactly the cells a serial execution would compute or load.
  [[nodiscard]] const std::vector<CellPlan>& plan() const noexcept {
    return plan_;
  }

  /// Redirects this context's science stdout (series/table/verdict/print
  /// and the FAILED-cell line) into `buffer` for ordered replay; null
  /// restores direct stdout. The campaign driver owns the buffer.
  void set_output_capture(std::string* buffer) noexcept {
    capture_ = buffer;
  }

  /// printf into the harness's science stdout stream: direct stdout by
  /// default, the capture buffer under the campaign driver, discarded
  /// while enumerating. All harness report output must go through the
  /// context (print/series/table/verdict) so replay keeps byte order.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void print(const char* fmt, ...);

  /// The active scenario selection; nullptr in the default paper mode.
  [[nodiscard]] const scenario::ScenarioSpec* scenario() const noexcept {
    return scenario_ ? &*scenario_ : nullptr;
  }

  /// Arms cell supervision: every cold cell computed by this context may
  /// retry `config.retries` times with seeded exponential backoff and is
  /// bounded by the cooperative wall-clock `config.timeout` (0 = none). A
  /// cell that exhausts its retries is quarantined: the failure is
  /// recorded (see failures()), a "[omnivar] FAILED cell ..." line goes to
  /// stdout, and CellQuarantined unwinds the harness while the campaign
  /// continues.
  void configure_supervision(const SupervisorConfig& config) noexcept {
    supervision_ = config;
  }

  /// Cells quarantined under this context (recorded before the unwind).
  [[nodiscard]] const std::vector<CellFailure>& failures() const noexcept {
    return failures_;
  }

  /// Records a platform this harness ran on (display name + scenario
  /// fingerprint; deduplicated) for the artifact's provenance block.
  void note_platform(const std::string& name,
                     const std::string& fingerprint);
  [[nodiscard]] bool caching() const noexcept { return !out_dir_.empty(); }

  /// Hook persisting extra per-cell data next to the RunMatrix CSV; `stem`
  /// is "<out>/cache/<hash>" (append your own extension). Load returns
  /// false to veto the cache hit (missing/corrupt sidecar => recompute).
  using ExtraSave = std::function<void(const std::string& stem)>;
  using ExtraLoad = std::function<bool(const std::string& stem)>;

  /// Runs one protocol cell through the result cache. `config` carries the
  /// benchmark-specific fingerprint fields; harness, label and the spec's
  /// protocol parameters are appended here. On a validated cache hit
  /// `compute` is not invoked.
  [[nodiscard]] RunMatrix protocol(const std::string& label,
                                   const ExperimentSpec& spec, SpecKey config,
                                   const std::function<RunMatrix()>& compute,
                                   const ExtraSave& save_extra = nullptr,
                                   const ExtraLoad& load_extra = nullptr);

  /// Prints the series exactly as the harnesses always did
  /// (printf("%s\n", render(digits))) and records it for the
  /// artifact at full precision.
  void series(const std::string& name, const report::Series& s,
              int digits = 4);

  /// Prints the table (printf("%s\n", render())) and records it.
  void table(const std::string& name, const report::Table& t);

  /// Records a table without printing (for call sites with bespoke
  /// surrounding output).
  void record_table(const std::string& name, const report::Table& t);

  /// Prints the standard "[SHAPE-OK] ..." verdict line and records it.
  void verdict(bool ok, const std::string& text);

  /// Records a named scalar (artifact only; no output).
  void metric(const std::string& name, double value);

  [[nodiscard]] std::size_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t cache_misses() const noexcept { return misses_; }
  [[nodiscard]] const std::vector<VerdictRecord>& verdicts() const noexcept {
    return verdicts_;
  }

  /// The deterministic artifact document (schema omnivar-artifact-v2:
  /// v1 plus the scenario/platform provenance blocks).
  [[nodiscard]] std::string artifact_json(
      const std::string& description) const;

 private:
  /// Appends `text` to the capture buffer, or writes it to stdout when no
  /// capture is installed; drops it on an enumeration pass.
  void emit(std::string_view text);

  std::string harness_;
  core::Executor& executor_;
  std::string out_dir_;
  std::optional<scenario::ScenarioSpec> scenario_;
  ContextMode mode_ = ContextMode::kExecute;
  std::vector<CellPlan> plan_;      ///< enumeration-pass cell declarations.
  std::string* capture_ = nullptr;  ///< science-stdout sink; null = stdout.
  SupervisorConfig supervision_;  ///< retry/timeout policy for cold cells.
  std::vector<CellFailure> failures_;
  std::vector<std::pair<std::string, std::string>> platforms_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::vector<CellRecord> cells_;
  std::vector<SeriesRecord> series_;
  std::vector<TableRecord> tables_;
  std::vector<MetricRecord> metrics_;
  std::vector<VerdictRecord> verdicts_;
};

/// Creates `dir` (and parents). Throws std::runtime_error on failure.
void ensure_dir(const std::string& dir);

/// main() body for the omnivar driver: --list / --only / --jobs / --out
/// over every registered harness; writes per-harness artifacts plus
/// campaign.json. Driver chrome goes to stderr so stdout stays exactly the
/// concatenated harness reports (and is byte-identical across cached
/// re-runs).
[[nodiscard]] int run_campaign(int argc, char** argv);

}  // namespace omv::cli
