#include "cli/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "cli/options.hpp"
#include "cli/registry.hpp"
#include "core/atomic_file.hpp"
#include "core/faultinject.hpp"
#include "core/json_writer.hpp"
#include "core/trace_io.hpp"
#include "scenario/registry.hpp"

namespace omv::cli {

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create directory '" + dir +
                             "': " + ec.message());
  }
}

RunContext::RunContext(std::string harness, core::Executor& executor,
                       std::string out_dir,
                       std::optional<scenario::ScenarioSpec> scenario,
                       ContextMode mode)
    : harness_(std::move(harness)),
      executor_(executor),
      out_dir_(std::move(out_dir)),
      scenario_(std::move(scenario)),
      mode_(mode) {
  if (caching() && !enumerating()) {
    ensure_dir(out_dir_ + "/cache");
  }
}

void RunContext::emit(std::string_view text) {
  if (enumerating()) return;
  if (capture_ != nullptr) {
    capture_->append(text);
    return;
  }
  // omvlint: allow(atomic-writes) stdout emission, not a file commit — this IS the capture-replay sink the rule protects
  std::fwrite(text.data(), 1, text.size(), stdout);
}

void RunContext::print(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string text;
  if (n > 0) {
    text.resize(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(text.data(), text.size(), fmt, args2);
    text.resize(static_cast<std::size_t>(n));
  }
  va_end(args2);
  emit(text);
}

std::string_view engine_version() {
  if (const char* v = std::getenv("OMNIVAR_ENGINE_VERSION"); v && *v != '\0') {
    return v;
  }
  return kEngineVersion;
}

void RunContext::note_platform(const std::string& name,
                               const std::string& fingerprint) {
  for (const auto& [n, f] : platforms_) {
    if (n == name && f == fingerprint) return;
  }
  platforms_.emplace_back(name, fingerprint);
}

RunMatrix RunContext::protocol(const std::string& label,
                               const ExperimentSpec& spec, SpecKey config,
                               const std::function<RunMatrix()>& compute,
                               const ExtraSave& save_extra,
                               const ExtraLoad& load_extra) {
  // Every cell key absorbs the engine generation: a cache dir written by
  // another simulator generation hashes apart wholesale.
  config.add("engine", engine_version());
  config.add("harness", harness_);
  config.add("label", label);
  config.add_spec(spec);
  const std::string hash = config.hex();

  if (enumerating()) {
    // Declare-only pass: record the cell exactly as a serial execution
    // would key it, and hand back a placeholder matrix of the spec's
    // shape. Values are small, distinct and non-zero so downstream
    // statistics (means, CVs, normalizations) stay finite — the harness's
    // output is discarded anyway.
    CellPlan plan;
    plan.label = label;
    plan.hash = hash;
    plan.cost = static_cast<double>(spec.runs) *
                static_cast<double>(spec.warmup + spec.reps);
    plan_.push_back(std::move(plan));
    RunMatrix placeholder(label);
    for (std::size_t r = 0; r < spec.runs; ++r) {
      std::vector<double> row(spec.reps);
      for (std::size_t k = 0; k < spec.reps; ++k) {
        row[k] = 1.0 + 1e-3 * static_cast<double>(r) +
                 1e-6 * static_cast<double>(k);
      }
      placeholder.add_run(std::move(row));
    }
    return placeholder;
  }

  CellRecord rec;
  rec.label = label;
  rec.hash = hash;
  rec.seed = spec.seed;
  rec.runs = spec.runs;
  rec.reps = spec.reps;
  rec.warmup = spec.warmup;

  const std::string stem =
      caching() ? out_dir_ + "/cache/" + hash : std::string();

  // Expected .key commit-file content: the cache schema stamp line, then
  // the canonical key. A whole-file comparison rejects pre-stamp caches
  // (no stamp line), other cache generations, hash collisions and
  // stale/corrupt entries alike — all degrade to a recompute.
  const std::string expected_key =
      std::string(kCacheKeySchema) + "\n" + config.canonical();

  // Attempts a validated cache load. Returns nullopt on a miss OR a
  // degraded entry (torn/truncated/corrupt data behind a valid .key):
  // the cache can never make a campaign wrong, only faster.
  const auto load_cached = [&]() -> std::optional<RunMatrix> {
    std::string stored_key;
    if (!core::read_file(stem + ".key", stored_key) ||
        stored_key != expected_key) {
      return std::nullopt;
    }
    try {
      RunMatrix m = io::load_run_matrix(stem + ".csv", label);
      // Shape must match the spec exactly: protocol cells are full
      // spec.runs x spec.reps rectangles, so a parseable-but-truncated
      // file (interrupted copy of a campaign dir) must degrade to a
      // recompute, never be served as valid data.
      bool shape_ok = m.runs() == spec.runs;
      for (std::size_t r = 0; shape_ok && r < m.runs(); ++r) {
        shape_ok = m.run(r).size() == spec.reps;
      }
      if (shape_ok && (!load_extra || load_extra(stem))) return m;
      std::fprintf(stderr,
                   "[omnivar] cache entry %s for '%s' is inconsistent; "
                   "recomputing\n",
                   hash.c_str(), label.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "[omnivar] cache entry %s for '%s' unreadable (%s); "
                   "recomputing\n",
                   hash.c_str(), label.c_str(), e.what());
    }
    return std::nullopt;
  };

  if (caching()) {
    if (auto m = load_cached()) {
      ++hits_;
      rec.cached = true;
      cells_.push_back(std::move(rec));
      return *m;
    }
  }

  // Compute-and-commit runs supervised: injected faults, the cooperative
  // cell timeout, and commit-path I/O errors are all retried (fresh
  // attempt = fresh compute = identical data) and, once the retry budget
  // is spent, quarantined. Commit order matters — data first, sidecars
  // next, the .key commit marker LAST — so a crash or injected fault at
  // any point leaves either no marker (a plain miss) or a fully committed
  // entry; never a marker over torn data.
  const auto supervised = [&]() -> RunMatrix {
    return supervise_cell(supervision_, label, hash, [&] {
      RunMatrix computed = compute();
      // Normalize to the cell label: the compute path labels matrices
      // with spec.name while a cache load uses `label` — a cold/warm run
      // must return indistinguishable objects.
      computed.set_label(label);
      if (caching()) {
        core::atomic_write_file(stem + ".csv",
                                io::run_matrix_to_csv(computed), "cache");
        if (save_extra) save_extra(stem);
        core::atomic_write_file(stem + ".key", expected_key, "key");
      }
      return computed;
    });
  };
  RunMatrix m = [&] {
    try {
      return supervised();
    } catch (const CellQuarantined& q) {
      // Record + announce here (stdout: the failure is part of the
      // harness's science report), then let the unwind continue to the
      // campaign driver.
      failures_.push_back(q.failure);
      this->print(
          "[omnivar] FAILED cell '%s' (%s after %zu attempt(s)): %s\n",
          q.failure.label.c_str(), q.failure.taxonomy.c_str(),
          q.failure.attempts, q.failure.error.c_str());
      throw;
    }
  }();
  ++misses_;
  cells_.push_back(std::move(rec));
  return m;
}

void RunContext::series(const std::string& name, const report::Series& s,
                        int digits) {
  emit(s.render(digits) + "\n");
  series_.push_back({name, s.x_name(), s.names(), s.points()});
}

void RunContext::table(const std::string& name, const report::Table& t) {
  emit(t.render() + "\n");
  record_table(name, t);
}

void RunContext::record_table(const std::string& name,
                              const report::Table& t) {
  tables_.push_back({name, t.header(), t.data()});
}

void RunContext::verdict(bool ok, const std::string& text) {
  this->print("[%s] %s\n", ok ? "SHAPE-OK" : "SHAPE-MISMATCH", text.c_str());
  verdicts_.push_back({ok, text});
}

void RunContext::metric(const std::string& name, double value) {
  metrics_.push_back({name, value});
}

std::string RunContext::artifact_json(const std::string& description) const {
  json::JsonWriter w;
  w.begin_object();
  w.key("schema").value("omnivar-artifact-v2");
  w.key("harness").value(harness_);
  w.key("description").value(description);

  // Scenario provenance: the active --scenario selection (null = the
  // paper's Dardel+Vera default), plus every platform the harness actually
  // ran on, so archived runs are self-describing.
  w.key("scenario");
  if (scenario_) {
    w.begin_object();
    w.key("name").value(scenario_->name);
    w.key("display").value(scenario_->display);
    w.key("fingerprint").value(scenario_->fingerprint());
    w.key("geometry").value(scenario_->geometry_summary());
    w.key("machine").begin_object();
    w.key("label").value(scenario_->machine.label);
    if (scenario_->machine.asymmetric()) {
      // v2 node-group geometry: the uniform fields are meaningless here;
      // the groups block is the machine definition.
      w.key("groups").begin_array();
      for (const auto& g : scenario_->machine.groups) {
        w.begin_object();
        w.key("name").value(g.name);
        if (g.socket_pinned()) {
          w.key("socket").value(g.socket);
        } else {
          w.key("sockets").value(g.sockets);
        }
        w.key("numa").value(g.numa);
        w.key("cores").value(g.cores);
        w.key("smt").value(g.smt);
        w.key("base_ghz").value(g.base_ghz);
        w.key("max_ghz").value(g.max_ghz);
        w.key("work_rate").value(g.work_rate);
        w.end_object();
      }
      w.end_array();
    } else {
      w.key("sockets").value(scenario_->machine.sockets);
      w.key("numa_per_socket").value(scenario_->machine.numa_per_socket);
      w.key("cores_per_numa").value(scenario_->machine.cores_per_numa);
      w.key("smt").value(scenario_->machine.smt);
      w.key("base_ghz").value(scenario_->machine.base_ghz);
      w.key("max_ghz").value(scenario_->machine.max_ghz);
    }
    w.end_object();
    w.end_object();
  } else {
    w.null();
  }
  w.key("platforms").begin_array();
  for (const auto& [name, fingerprint] : platforms_) {
    w.begin_object();
    w.key("name").value(name);
    w.key("fingerprint").value(fingerprint);
    w.end_object();
  }
  w.end_array();

  w.key("cells").begin_array();
  for (const auto& c : cells_) {
    w.begin_object();
    w.key("label").value(c.label);
    w.key("spec_hash").value(c.hash);
    w.key("seed").value(static_cast<std::uint64_t>(c.seed));
    w.key("runs").value(c.runs);
    w.key("reps").value(c.reps);
    w.key("warmup").value(c.warmup);
    w.key("csv").value("cache/" + c.hash + ".csv");
    w.end_object();
  }
  w.end_array();

  w.key("series").begin_array();
  for (const auto& s : series_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("x_name").value(s.x_name);
    w.key("columns").begin_array();
    for (const auto& c : s.columns) w.value(c);
    w.end_array();
    w.key("points").begin_array();
    for (const auto& [x, ys] : s.points) {
      w.begin_array();
      w.value(x);
      for (const double y : ys) w.value(y);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("tables").begin_array();
  for (const auto& t : tables_) {
    w.begin_object();
    w.key("name").value(t.name);
    w.key("header").begin_array();
    for (const auto& h : t.header) w.value(h);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : t.rows) {
      w.begin_array();
      for (const auto& cell : row) w.value(cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("metrics").begin_array();
  for (const auto& m : metrics_) {
    w.begin_object();
    w.key("name").value(m.name);
    w.key("value").value(m.value);
    w.end_object();
  }
  w.end_array();

  w.key("verdicts").begin_array();
  for (const auto& v : verdicts_) {
    w.begin_object();
    w.key("ok").value(v.ok);
    w.key("text").value(v.text);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

namespace {

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--scenarios] [--version] "
               "[--only GLOB]... [--jobs N] [--scenario S]... "
               "[--scenario-set FILE] [--plan] [--out DIR] "
               "[--retry-cells N] [--cell-timeout MS] [--fault-spec SPEC]\n"
               "  --list       list registered harnesses\n"
               "  --scenarios  list the scenario catalog\n"
               "  --version    print the engine version\n"
               "  --only GLOB  run only harnesses matching the glob "
               "(repeatable)\n"
               "  --jobs N     run units and protocol runs on N workers "
               "(0 = one per\n"
               "               hardware thread, at most %zu; default: 1 — "
               "serial);\n"
               "               output is replayed in registry x scenario "
               "order, so\n"
               "               stdout/artifacts/cache are byte-identical "
               "at any N\n"
               "  --cell-jobs N\n"
               "               deprecated alias: the width is the larger of "
               "--jobs and\n"
               "               --cell-jobs\n"
               "  --scenario S run on scenario S: a catalog name or a "
               "scenario-file\n"
               "               path (repeatable: the campaign fans out "
               "over every\n"
               "               listed scenario; default: the paper's "
               "Dardel+Vera\n"
               "               pair)\n"
               "  --scenario-set FILE\n"
               "               append scenario selectors from FILE (one "
               "per line,\n"
               "               '#' comments) to the --scenario list\n"
               "  --plan       enumerate every protocol cell the selection "
               "would run\n"
               "               (harness, scenario, label, spec hash, cost) "
               "and exit\n"
               "  --out DIR    campaign directory: per-harness JSON "
               "artifacts,\n"
               "               campaign.json, and the spec-hash result "
               "cache;\n"
               "               re-running into the same DIR resumes an "
               "interrupted\n"
               "               campaign from its committed cells\n"
               "  --retry-cells N\n"
               "               retry a failing protocol cell N times (seeded\n"
               "               exponential backoff) before quarantining it\n"
               "               (default: 0)\n"
               "  --cell-timeout MS\n"
               "               per-cell wall-clock budget, enforced "
               "cooperatively at\n"
               "               repetition boundaries (default: "
               "unlimited)\n"
               "  --fault-spec SPEC\n"
               "               arm deterministic fault injection, e.g.\n"
               "               'cell_throw@3,torn_write:cache@2' (default: "
               "off)\n"
               "  --help       print this usage\n"
               "a flag's value may also follow '=' (--jobs=4)\n"
               "exit codes: 0 ok, 2 usage, 4 cell(s) quarantined, 1 other "
               "failure\n",
               argv0, kMaxJobs);
}

/// --version: the engine generation every cell key absorbs, as an
/// "engine: VALUE" line on stdout.
void print_version() {
  std::printf("engine: %s\n", std::string(kEngineVersion).c_str());
}

void print_scenarios() {
  for (const auto& s : scenario::ScenarioRegistry::instance().all()) {
    std::printf("%-12s %-10s %s\n      %s\n", s.name.c_str(),
                s.display.c_str(), s.geometry_summary().c_str(),
                s.description.c_str());
  }
}

/// Resolves one --scenario selection. Returns false (with a stderr report)
/// when the selection cannot be resolved.
bool resolve_scenario(const std::string& selection,
                      std::optional<scenario::ScenarioSpec>& out) {
  if (selection.empty()) return true;
  try {
    out = scenario::resolve(selection);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[omnivar] %s\n", e.what());
    return false;
  }
}

void report_option_errors(const Options& o) {
  for (const auto& e : o.errors) {
    std::fprintf(stderr, "[omnivar] ignoring %s\n", e.c_str());
  }
}

struct HarnessOutcome {
  std::string name;
  std::string scenario;  ///< scenario name; "" = the paper default.
  std::string artifact;  ///< artifact file name ("" = none written).
  int exit_code = 0;
  std::size_t verdicts_ok = 0;
  std::size_t verdicts_total = 0;
  std::size_t cached = 0;
  std::size_t computed = 0;
  double seconds = 0.0;
  bool artifact_written = false;
  std::vector<CellFailure> failures;  ///< quarantined cells.
};

/// What every unit of one campaign shares.
struct CampaignSettings {
  core::Executor* executor = nullptr;
  std::string out_dir;
  SupervisorConfig sup;
};

/// One (harness, scenario) execution unit of the campaign fan-out, in
/// registry x scenario order.
struct Unit {
  const HarnessInfo* h = nullptr;
  const std::optional<scenario::ScenarioSpec>* scn = nullptr;
  std::string artifact;  ///< per-unit artifact file name.
};

/// "name" or "name @ scenario" for stderr chrome.
std::string unit_display(const std::string& name,
                         const std::string& scenario) {
  return scenario.empty() ? name : name + " @ " + scenario;
}

/// Runs one unit under a fresh context, its science stdout captured into
/// `capture` for ordered replay; writes its artifact when an out dir is
/// configured.
HarnessOutcome run_one(const Unit& unit, const CampaignSettings& c,
                       std::string* capture) {
  const HarnessInfo& h = *unit.h;
  HarnessOutcome out;
  out.name = h.name;
  out.scenario = *unit.scn ? (*unit.scn)->name : "";
  out.artifact = unit.artifact;
  const auto t0 = std::chrono::steady_clock::now();
  // Everything that can throw is inside this block — a bad --out path
  // (RunContext's ensure_dir), a failing harness, or an artifact write
  // error must mark this harness FAILED, not std::terminate the campaign.
  try {
    RunContext ctx(h.name, *c.executor, c.out_dir, *unit.scn);
    ctx.configure_supervision(c.sup);
    ctx.set_output_capture(capture);
    try {
      out.exit_code = h.run(ctx);
    } catch (const CellQuarantined&) {
      // The cell's failure record and stdout announcement already landed
      // (RunContext::protocol); here we only translate the unwind into the
      // quarantine exit code — the campaign keeps running.
      out.exit_code = kExitQuarantined;
    }
    out.verdicts_total = ctx.verdicts().size();
    for (const auto& v : ctx.verdicts()) {
      if (v.ok) ++out.verdicts_ok;
    }
    out.cached = ctx.cache_hits();
    out.computed = ctx.cache_misses();
    out.failures = ctx.failures();
    if (!c.out_dir.empty() && out.exit_code == kExitOk) {
      core::atomic_write_file(c.out_dir + "/" + out.artifact,
                              ctx.artifact_json(h.description), "artifact");
      out.artifact_written = true;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[omnivar] %s failed: %s\n",
                 unit_display(out.name, out.scenario).c_str(), e.what());
    out.exit_code = kExitHarnessFailed;
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

void write_campaign_json(
    const std::string& out_dir, std::size_t jobs,
    const std::vector<std::optional<scenario::ScenarioSpec>>& scns,
    const std::vector<HarnessOutcome>& outcomes) {
  json::JsonWriter w;
  w.begin_object();
  w.key("schema").value("omnivar-campaign-v4");
  w.key("jobs").value(jobs);
  // v2 compatibility: "scenario" stays the (single) active selection;
  // multi-scenario campaigns list every selection under "scenarios" and
  // tag each outcome.
  w.key("scenario");
  if (scns.size() == 1 && scns.front()) {
    w.begin_object();
    w.key("name").value(scns.front()->name);
    w.key("fingerprint").value(scns.front()->fingerprint());
    w.end_object();
  } else {
    w.null();
  }
  w.key("scenarios").begin_array();
  for (const auto& s : scns) {
    if (!s) continue;  // paper mode carries no scenario entries
    w.begin_object();
    w.key("name").value(s->name);
    w.key("fingerprint").value(s->fingerprint());
    w.end_object();
  }
  w.end_array();
  bool ok = true;
  w.key("harnesses").begin_array();
  for (const auto& o : outcomes) {
    ok &= o.exit_code == 0;
    w.begin_object();
    w.key("name").value(o.name);
    w.key("scenario");
    if (o.scenario.empty()) {
      w.null();
    } else {
      w.value(o.scenario);
    }
    w.key("exit_code").value(static_cast<std::int64_t>(o.exit_code));
    w.key("verdicts_ok").value(o.verdicts_ok);
    w.key("verdicts_total").value(o.verdicts_total);
    w.key("cells_cached").value(o.cached);
    w.key("cells_computed").value(o.computed);
    w.key("seconds").value(o.seconds);
    if (o.artifact_written) {
      w.key("artifact").value(o.artifact);
    } else {
      w.key("artifact").null();
    }
    w.key("failures").begin_array();
    for (const auto& f : o.failures) {
      w.begin_object();
      w.key("label").value(f.label);
      w.key("spec_hash").value(f.hash);
      w.key("taxonomy").value(f.taxonomy);
      w.key("error").value(f.error);
      w.key("attempts").value(f.attempts);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("ok").value(ok);
  w.end_object();
  core::atomic_write_file(out_dir + "/campaign.json", w.str(), "campaign");
}

void report_outcome(const HarnessOutcome& o) {
  const char* status = o.exit_code == kExitOk ? "done"
                       : o.exit_code == kExitQuarantined ? "QUARANTINED"
                                                         : "FAILED";
  std::fprintf(stderr,
               "[omnivar] %s: %s — %zu/%zu shape checks ok, cells: %zu "
               "cached + %zu computed (%.1fs)\n",
               unit_display(o.name, o.scenario).c_str(), status,
               o.verdicts_ok, o.verdicts_total, o.cached, o.computed,
               o.seconds);
}

/// Arms the --fault-spec fault-injection plan. Returns false on a
/// malformed spec — a usage error: a typo'd plan must never silently run a
/// healthy campaign that CI then treats as a fault-survival proof.
bool arm_fault_spec(const std::string& spec) {
  try {
    fault::set_active_spec(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[omnivar] %s\n", e.what());
    return false;
  }
  if (!spec.empty()) {
    std::fprintf(stderr, "[omnivar] fault injection armed: %s\n",
                 spec.c_str());
  }
  return true;
}

/// The tag a scenario contributes to multi-scenario artifact names: its
/// name, sanitized for file-based selectors whose names may carry path
/// characters.
std::string artifact_tag(const scenario::ScenarioSpec& s) {
  std::string tag = s.name;
  for (char& c : tag) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return tag;
}

/// Resolves every effective scenario selector. Paper mode (no selection)
/// yields one disengaged entry so the unit fan-out always has at least one
/// scenario axis. Two selections with the same artifact tag are a usage
/// error: their units would write — and race for — the same artifact
/// files (this also rejects a scenario selected twice).
bool resolve_scenario_list(
    const Options& o,
    std::vector<std::optional<scenario::ScenarioSpec>>& out) {
  std::vector<std::string> sels;
  try {
    sels = effective_scenarios(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[omnivar] %s\n", e.what());
    return false;
  }
  if (sels.empty()) {
    out.emplace_back(std::nullopt);
    return true;
  }
  for (std::size_t i = 0; i < sels.size(); ++i) {
    std::optional<scenario::ScenarioSpec> s;
    if (!resolve_scenario(sels[i], s)) return false;
    const std::string tag = artifact_tag(*s);
    for (std::size_t j = 0; j < out.size(); ++j) {
      if (artifact_tag(*out[j]) == tag) {
        std::fprintf(stderr,
                     "[omnivar] scenario selections '%s' and '%s' share the "
                     "artifact tag '%s' (scenario names '%s' and '%s'); "
                     "give each scenario a distinct name\n",
                     sels[j].c_str(), sels[i].c_str(), tag.c_str(),
                     out[j]->name.c_str(), s->name.c_str());
        return false;
      }
    }
    out.push_back(std::move(s));
  }
  return true;
}

/// Artifact file names stay "<harness>.json" for single-scenario runs
/// (byte-compatible with every prior release); a multi-scenario fan-out
/// suffixes the scenario's artifact tag ("<harness>.<tag>.json").
std::vector<Unit> build_units(
    const std::vector<const HarnessInfo*>& selected,
    const std::vector<std::optional<scenario::ScenarioSpec>>& scns) {
  const bool multi = scns.size() > 1;
  std::vector<Unit> units;
  units.reserve(selected.size() * scns.size());
  for (const HarnessInfo* h : selected) {
    for (const auto& s : scns) {
      units.push_back({h, &s,
                       multi && s ? h->name + "." + artifact_tag(*s) + ".json"
                                  : h->name + ".json"});
    }
  }
  return units;
}

/// Runs one unit's harness in enumeration mode; returns its cell plan
/// (empty — and unprioritized — when the harness cannot enumerate).
std::vector<CellPlan> enumerate_unit(const Unit& unit) {
  core::Executor inert(1);  // an enumeration pass computes nothing
  RunContext ctx(unit.h->name, inert, "", *unit.scn,
                 ContextMode::kEnumerate);
  try {
    (void)unit.h->run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "[omnivar] cell enumeration of %s failed (%s); its cells "
                 "run unprioritized\n",
                 unit.h->name.c_str(), e.what());
  }
  return ctx.plan();
}

/// --plan: print every enumerated cell as
/// "harness<TAB>scenario<TAB>label<TAB>hash<TAB>cost" in execution order
/// ("-" = the paper's default scenario pair).
int print_plan(const std::vector<Unit>& units) {
  for (const Unit& unit : units) {
    const std::string scn_name = *unit.scn ? (*unit.scn)->name : "-";
    for (const CellPlan& c : enumerate_unit(unit)) {
      std::printf("%s\t%s\t%s\t%s\t%.0f\n", unit.h->name.c_str(),
                  scn_name.c_str(), c.label.c_str(), c.hash.c_str(), c.cost);
    }
  }
  return kExitOk;
}

/// Parallelism is incompatible with an armed fault plan: occurrence
/// counters (`@N`) fire in process-wide arrival order, which only replays
/// deterministically when cells execute one at a time. Forcing one worker
/// keeps every --fault-spec campaign bit-reproducible at any requested
/// --jobs.
std::size_t force_serial_when_faults_armed(std::size_t width) {
  if (width > 1 && fault::active_plan().armed()) {
    std::fprintf(stderr,
                 "[omnivar] fault injection is armed; forcing --jobs 1 "
                 "so @N occurrence counters replay deterministically\n");
    return 1;
  }
  return width;
}

/// The executor width: --jobs, raised by the deprecated --cell-jobs alias.
std::size_t resolve_width(const Options& o) {
  if (o.cell_jobs != 0) {
    std::fprintf(stderr,
                 "[omnivar] --cell-jobs is deprecated; use --jobs (the "
                 "width is the larger of the two)\n");
  }
  return effective_width(o);
}

/// Aggregates per-harness exit codes into the driver's exit code:
/// quarantine beats generic failure, else any failure is 1.
int aggregate_rc(const std::vector<HarnessOutcome>& outcomes) {
  bool any_failed = false;
  bool any_quarantined = false;
  for (const auto& o : outcomes) {
    if (o.exit_code == kExitQuarantined) {
      any_quarantined = true;
    } else if (o.exit_code != kExitOk) {
      any_failed = true;
    }
  }
  if (any_quarantined) return kExitQuarantined;
  return any_failed ? kExitHarnessFailed : kExitOk;
}

/// Submission order of the units: registry x scenario order at one
/// worker; otherwise longest enumerated cost first (ties keep registry
/// order), so the longest units start before the pool fills up.
std::vector<std::size_t> submission_order(const std::vector<Unit>& units,
                                          std::size_t workers) {
  std::vector<std::size_t> order(units.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (workers <= 1 || units.size() <= 1) return order;
  std::vector<double> cost(units.size(), 0.0);
  std::size_t cells = 0;
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (const CellPlan& c : enumerate_unit(units[u])) {
      cost[u] += c.cost;
      ++cells;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  std::fprintf(stderr,
               "[omnivar] executor: %zu cells across %zu units, %zu "
               "workers\n",
               cells, units.size(), workers);
  return order;
}

/// Runs every unit as one executor task and replays each unit's captured
/// stdout (and its stderr outcome line) in registry x scenario order as
/// soon as it and every unit before it are done. Returns the outcomes in
/// registry x scenario order.
std::vector<HarnessOutcome> run_units(const std::vector<Unit>& units,
                                      const CampaignSettings& settings) {
  std::mutex mutex;  // guards everything below that tasks share
  std::vector<std::string> captures(units.size());
  std::vector<HarnessOutcome> outcomes(units.size());
  std::vector<bool> done(units.size(), false);
  std::size_t replayed = 0;
  std::size_t started = 0;
  const auto finish = [&](std::size_t u, HarnessOutcome outcome) {
    std::lock_guard lock(mutex);
    outcomes[u] = std::move(outcome);
    done[u] = true;
    for (; replayed < units.size() && done[replayed]; ++replayed) {
      const std::string& text = captures[replayed];
      // omvlint: allow(atomic-writes) ordered stdout replay of captured unit output, not a file commit
      std::fwrite(text.data(), 1, text.size(), stdout);
      std::fflush(stdout);
      report_outcome(outcomes[replayed]);
      captures[replayed] = std::string();
    }
  };

  core::TaskGroup group(*settings.executor, core::TaskKind::kUnit);
  for (const std::size_t u : submission_order(units,
                                              settings.executor->workers())) {
    group.run([&, u] {
      std::size_t n = 0;
      {
        std::lock_guard lock(mutex);
        n = ++started;
      }
      const Unit& unit = units[u];
      std::fprintf(stderr, "[omnivar] running %s (%zu of %zu)\n",
                   unit_display(unit.h->name,
                                *unit.scn ? (*unit.scn)->name : "")
                       .c_str(),
                   n, units.size());
      finish(u, run_one(unit, settings, &captures[u]));
    });
  }
  group.wait();
  return outcomes;
}

}  // namespace

int run_campaign(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  report_option_errors(o);
  if (o.help) {
    print_usage(argv[0]);
    return 0;
  }
  const auto& reg = Registry::instance();
  if (o.list) {
    for (const auto& h : reg.all()) {
      std::printf("%-16s %s\n", h.name.c_str(), h.description.c_str());
    }
    return 0;
  }
  if (o.list_scenarios) {
    print_scenarios();
    return 0;
  }
  if (o.version) {
    print_version();
    return 0;
  }
  std::vector<std::optional<scenario::ScenarioSpec>> scns;
  if (!resolve_scenario_list(o, scns)) return kExitUsage;
  if (!arm_fault_spec(o.fault_spec)) return kExitUsage;
  const auto selected = reg.match(o.only);
  if (selected.empty()) {
    std::fprintf(stderr, "[omnivar] no harness matches");
    for (const auto& g : o.only) std::fprintf(stderr, " '%s'", g.c_str());
    std::fprintf(stderr, "; try --list\n");
    return kExitUsage;
  }

  const std::vector<Unit> units = build_units(selected, scns);
  if (o.plan) return print_plan(units);
  if (!o.out_dir.empty()) {
    // A campaign killed mid-write leaves "<file>.tmp.<pid>" temps that no
    // run would ever rename; clear those of dead writers before this run
    // commits anything.
    core::remove_dead_writer_temps(o.out_dir);
    core::remove_dead_writer_temps(o.out_dir + "/cache");
  }

  core::Executor executor(force_serial_when_faults_armed(resolve_width(o)));
  CampaignSettings settings;
  settings.executor = &executor;
  settings.out_dir = o.out_dir;
  settings.sup = {o.retry_cells,
                  std::chrono::milliseconds(o.cell_timeout_ms)};
  for (const auto& scn : scns) {
    if (scn) {
      std::fprintf(stderr, "[omnivar] scenario %s (%s, %s)\n",
                   scn->name.c_str(), scn->display.c_str(),
                   scn->fingerprint().c_str());
    }
  }

  const std::vector<HarnessOutcome> outcomes = run_units(units, settings);
  int rc = aggregate_rc(outcomes);
  if (!o.out_dir.empty()) {
    try {
      write_campaign_json(o.out_dir, executor.workers(), scns, outcomes);
      std::fprintf(stderr, "[omnivar] campaign summary: %s/campaign.json\n",
                   o.out_dir.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[omnivar] cannot write campaign.json: %s\n",
                   e.what());
      rc = rc != kExitOk ? rc : kExitHarnessFailed;
    }
  }
  return rc;
}

}  // namespace omv::cli
