// Campaign scheduling byte-identity: fork/exec the REAL omnivar driver and
// assert the executor's determinism contract —
//   * a multi-harness, multi-scenario campaign at --jobs 4, and through
//     the deprecated alias --cell-jobs 4 --jobs 1, produces byte-identical
//     stdout, per-harness JSON artifacts, and cache contents to the serial
//     --jobs 1 run (campaign.json is exempt: it records wall-clock seconds
//     and the width);
//   * the same identity holds under an injected cell_throw quarantine
//     (the driver forces serial dispatch while a fault plan is armed and
//     still exits 4 with the FAILED line in the right stdout position);
//   * with no selection at all, the whole registry is byte-stable the same
//     way, cold at --jobs 1 and 4 and warm from the filled cache — also
//     once every archived fig6/fig7 trace is deleted (warm hits read only
//     the .panel summaries), while a deleted summary recomputes just its
//     cell;
//   * enumeration matches execution: the --plan listing's spec hashes are
//     exactly the cells a serial campaign commits to the cache, and no
//     hash of the selection's, the default campaign's or a wide
//     multi-scenario plan belongs to two (harness, scenario) units;
//   * the paper's machines plan the paper's cells however they are
//     selected, and every other machine its machine-derived cells;
//   * every cell key is pinned: the quick-mode --plan listings of the
//     default campaign and of the six non-paper presets equal the
//     committed files under tests/data byte for byte;
//   * two scenario selections that would write the same artifact file are
//     a usage error naming both selectors;
//   * a --jobs width past the executor ceiling is reported and ignored
//     rather than aborting the process;
//   * the command line is the only configuration input: exporting
//     OMNIVAR_JOBS, OMNIVAR_SCENARIO, OMNIVAR_FAULT_SPEC and the other
//     variables named after flags leaves a campaign byte-identical;
//   * a campaign SIGKILLed at seeded points resumes cell by cell: the
//     re-run into the same --out recomputes exactly the cells the killed
//     process had not committed and ends byte-identical to a clean run.
//
// The driver binary path arrives via OMNIVAR_BIN (set by the CMake test
// harness to $<TARGET_FILE:omnivar>); the suite skips when it is absent so
// the test library builds standalone.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

const char* omnivar_bin() { return std::getenv("OMNIVAR_BIN"); }

// Three harnesses x three scenario presets = nine (harness, scenario)
// units, protocol-heavy and quick-mode sized.
const std::vector<std::string> kHarnesses = {"fig1", "fig3", "table2"};
const std::vector<std::string> kScenarios = {"vera", "epyc-like",
                                             "quiet-hpc"};

/// Variables added to a spawned driver's environment.
using Env = std::vector<std::pair<std::string, std::string>>;

/// fork/execs the driver with `args`, stdout > `stdout_path` (and stderr >
/// `stderr_path` when given). OMNIVAR_QUICK=1 keeps the workload CI-sized,
/// and a protocol size or engine stamp exported by the calling shell is
/// dropped; `env` is exported in the child on top of that.
pid_t spawn_omnivar(const std::string& bin,
                    const std::vector<std::string>& args,
                    const std::string& stdout_path, const Env& env = {},
                    const std::string& stderr_path = {}) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (!::freopen(stdout_path.c_str(), "w", stdout)) ::_exit(97);
  if (!stderr_path.empty() && !::freopen(stderr_path.c_str(), "w", stderr)) {
    ::_exit(97);
  }
  ::setenv("OMNIVAR_QUICK", "1", 1);
  ::unsetenv("OMNIVAR_RUNS");
  ::unsetenv("OMNIVAR_REPS");
  ::unsetenv("OMNIVAR_ENGINE_VERSION");
  for (const auto& [name, value] : env) {
    ::setenv(name.c_str(), value.c_str(), 1);
  }
  std::vector<std::string> argv_strings{bin};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (auto& a : argv_strings) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(bin.c_str(), argv.data());
  ::_exit(98);
}

/// spawn_omnivar with the standard multi-harness multi-scenario selection
/// ahead of `extra_args`.
pid_t spawn_campaign(const std::string& bin,
                     const std::vector<std::string>& extra_args,
                     const std::string& stdout_path,
                     const std::string& stderr_path = {}) {
  std::vector<std::string> args;
  for (const auto& h : kHarnesses) {
    args.push_back("--only");
    args.push_back(h);
  }
  for (const auto& s : kScenarios) {
    args.push_back("--scenario");
    args.push_back(s);
  }
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  return spawn_omnivar(bin, args, stdout_path, {}, stderr_path);
}

int wait_exit_code(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f),
          std::istreambuf_iterator<char>()};
}

/// Maps out-dir-relative path -> bytes for everything a campaign writes,
/// campaign.json excluded (it records wall-clock seconds and the width).
std::map<std::string, std::string> artifact_contents(const fs::path& out) {
  std::map<std::string, std::string> m;
  for (const auto& e : fs::recursive_directory_iterator(out)) {
    if (!e.is_regular_file()) continue;
    const std::string rel =
        fs::relative(e.path(), out).generic_string();
    if (rel == "campaign.json") continue;
    m[rel] = slurp(e.path());
  }
  return m;
}

/// Expects `got` to hold exactly the files of `expected`, byte for byte;
/// failures name the file, not its bytes.
void expect_same_contents(const std::map<std::string, std::string>& expected,
                          const std::map<std::string, std::string>& got) {
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(got.size(), expected.size());
  for (const auto& [rel, bytes] : expected) {
    const auto it = got.find(rel);
    if (it == got.end()) {
      ADD_FAILURE() << "missing: " << rel;
      continue;
    }
    EXPECT_TRUE(it->second == bytes) << "artifact differs: " << rel;
  }
  for (const auto& [rel, bytes] : got) {
    if (expected.count(rel) == 0) ADD_FAILURE() << "unexpected: " << rel;
  }
}

void expect_identical_trees(const fs::path& serial, const fs::path& par) {
  expect_same_contents(artifact_contents(serial), artifact_contents(par));
}

/// Parses omnivar's per-unit stderr lines ("[omnivar] NAME: done — ...
/// cells: C cached + N computed (...)") into NAME -> N.
std::map<std::string, std::size_t> computed_per_unit(const std::string& err) {
  std::map<std::string, std::size_t> out;
  std::istringstream in(err);
  std::string line;
  const std::string prefix = "[omnivar] ";
  const std::string marker = " cached + ";
  while (std::getline(in, line)) {
    const auto colon = line.find(": done");
    const auto at = line.find(marker);
    if (line.rfind(prefix, 0) != 0 || colon == std::string::npos ||
        at == std::string::npos) {
      continue;
    }
    out[line.substr(prefix.size(), colon - prefix.size())] =
        std::stoul(line.substr(at + marker.size()));
  }
  return out;
}

/// Number of committed cache entries (.key commit markers) under `out`;
/// 0 when the campaign never created its cache.
std::size_t committed_cells(const fs::path& out) {
  std::error_code ec;
  std::size_t n = 0;
  for (fs::directory_iterator it(out / "cache", ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().extension() == ".key") ++n;
  }
  return n;
}

/// Reads a --plan listing, one cell per line
/// (harness<TAB>scenario<TAB>label<TAB>hash<TAB>cost), into hash -> the
/// "harness @ scenario" units that list it.
std::map<std::string, std::set<std::string>> plan_units(
    const std::string& tsv) {
  std::map<std::string, std::set<std::string>> units;
  std::istringstream in(tsv);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cols;
    std::istringstream ls(line);
    std::string col;
    while (std::getline(ls, col, '\t')) cols.push_back(col);
    if (cols.size() != 5) {
      ADD_FAILURE() << "malformed plan line: " << line;
      continue;
    }
    units[cols[3]].insert(cols[0] + " @ " + cols[1]);
  }
  return units;
}

/// Expects each planned hash to belong to one unit. Units run concurrently
/// in one process, and a cell commits under its hash's cache stem through
/// temps named after the process, so two units sharing a hash could
/// interleave writes to one temp. A hash repeated inside one unit is fine:
/// a unit runs its cells in order.
void expect_one_unit_per_hash(
    const std::map<std::string, std::set<std::string>>& units) {
  EXPECT_FALSE(units.empty());
  for (const auto& [hash, in] : units) {
    std::string names;
    for (const auto& u : in) names += " [" + u + "]";
    EXPECT_EQ(in.size(), 1u) << hash << " is planned in" << names;
  }
}

class CampaignSchedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (omnivar_bin() == nullptr || !fs::exists(omnivar_bin())) {
      GTEST_SKIP() << "OMNIVAR_BIN not set / not built; skipping the "
                      "campaign scheduling end-to-end test";
    }
    dir_ = fs::temp_directory_path() /
           ("omnivar_sched_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(CampaignSchedTest, CellParallelCampaignBytesMatchSerial) {
  const std::string bin = omnivar_bin();

  const fs::path serial_out = dir_ / "serial";
  const pid_t serial = spawn_campaign(
      bin, {"--out", serial_out.string(), "--jobs", "1"},
      (dir_ / "serial.log").string());
  ASSERT_EQ(wait_exit_code(serial), 0);
  const std::string serial_log = slurp(dir_ / "serial.log");
  ASSERT_FALSE(serial_log.empty());

  // --jobs 4, and the deprecated alias spelling of the same width.
  const std::vector<std::pair<std::string, std::vector<std::string>>> runs = {
      {"par4", {"--jobs", "4"}},
      {"alias4", {"--cell-jobs", "4", "--jobs", "1"}},
  };
  for (const auto& [tag, flags] : runs) {
    const fs::path out = dir_ / tag;
    std::vector<std::string> args{"--out", out.string()};
    args.insert(args.end(), flags.begin(), flags.end());
    const pid_t par =
        spawn_campaign(bin, args, (dir_ / (tag + ".log")).string(),
                       (dir_ / (tag + ".err")).string());
    ASSERT_EQ(wait_exit_code(par), 0) << tag;
    // Units ran on four workers, ordered by their enumerated cost.
    EXPECT_NE(slurp(dir_ / (tag + ".err")).find("4 workers"),
              std::string::npos)
        << tag;
    // Science stdout is replayed in registry x scenario order: byte-equal.
    EXPECT_EQ(slurp(dir_ / (tag + ".log")), serial_log) << tag;
    // Per-unit JSON artifacts and every cache entry byte-equal.
    expect_identical_trees(serial_out, out);
  }

  // A warm re-run at --jobs 4 serves everything from cache and stays
  // byte-identical.
  const pid_t warm = spawn_campaign(
      bin, {"--out", (dir_ / "par4").string(), "--jobs", "4"},
      (dir_ / "warm.log").string());
  ASSERT_EQ(wait_exit_code(warm), 0);
  EXPECT_EQ(slurp(dir_ / "warm.log"), serial_log);
}

// No selection at all: every registered harness is a deterministic paper
// harness, so a default campaign is byte-stable as a whole — cold at one
// and four workers, and warm from the filled cache.
TEST_F(CampaignSchedTest, WholeRegistryIsByteStable) {
  const std::string bin = omnivar_bin();
  const fs::path a = dir_ / "a";
  const fs::path b = dir_ / "b";
  ASSERT_EQ(wait_exit_code(spawn_omnivar(
                bin, {"--out", a.string(), "--jobs", "1"},
                (dir_ / "a.log").string())),
            0);
  ASSERT_EQ(wait_exit_code(spawn_omnivar(
                bin, {"--out", b.string(), "--jobs", "4"},
                (dir_ / "b.log").string())),
            0);
  const std::string serial_log = slurp(dir_ / "a.log");
  ASSERT_FALSE(serial_log.empty());
  EXPECT_EQ(slurp(dir_ / "b.log"), serial_log);
  expect_identical_trees(a, b);

  ASSERT_EQ(wait_exit_code(spawn_omnivar(
                bin, {"--out", a.string(), "--jobs", "4"},
                (dir_ / "warm.log").string())),
            0);
  EXPECT_EQ(slurp(dir_ / "warm.log"), serial_log);
  expect_identical_trees(a, b);

  // A warm fig6/fig7 hit reads only the .panel summary: with every
  // archived .trace.csv gone, each cell is still served from cache and
  // the bytes do not move.
  std::vector<fs::path> panels;
  for (const auto& e : fs::directory_iterator(a / "cache")) {
    const std::string name = e.path().filename().string();
    if (name.ends_with(".trace.csv")) fs::remove(e.path());
    if (name.ends_with(".panel")) panels.push_back(e.path());
  }
  ASSERT_EQ(panels.size(), 4u);  // two panels each in fig6 and fig7
  auto expected = artifact_contents(b);
  std::erase_if(expected, [](const auto& kv) {
    return kv.first.ends_with(".trace.csv");
  });
  const auto warm_run = [&](const std::string& tag) {
    EXPECT_EQ(wait_exit_code(spawn_omnivar(
                  bin, {"--out", a.string(), "--jobs", "4"},
                  (dir_ / (tag + ".log")).string(), {},
                  (dir_ / (tag + ".err")).string())),
              0)
        << tag;
    EXPECT_EQ(slurp(dir_ / (tag + ".log")), serial_log) << tag;
    return computed_per_unit(slurp(dir_ / (tag + ".err")));
  };
  const auto no_traces = warm_run("no_traces");
  EXPECT_EQ(no_traces.size(), 12u);
  for (const auto& [unit, computed] : no_traces) {
    EXPECT_EQ(computed, 0u) << unit;
  }
  expect_same_contents(expected, artifact_contents(a));

  // Without its summary, a cell recomputes: exactly that one, which
  // commits its trace and summary again.
  fs::remove(panels.front());
  const auto one_panel = warm_run("one_panel");
  std::size_t recomputed = 0;
  for (const auto& [unit, computed] : one_panel) recomputed += computed;
  EXPECT_EQ(recomputed, 1u);
  const std::string stem = panels.front().stem().string();
  const std::string trace = "cache/" + stem + ".trace.csv";
  auto got = artifact_contents(a);
  ASSERT_EQ(got.count(trace), 1u);
  EXPECT_TRUE(got[trace] == artifact_contents(b)[trace])
      << "archived trace differs: " << trace;
  got.erase(trace);
  expect_same_contents(expected, got);
}

TEST_F(CampaignSchedTest, QuarantineUnderCellParallelMatchesSerial) {
  const std::string bin = omnivar_bin();

  // Persistent fault: every fig1 Vera/t2/reduction attempt throws, in
  // every scenario — the cell quarantines its harness, the campaign
  // continues, exit 4.
  const std::string spec = "cell_throw:*/t2/reduction";

  const fs::path serial_out = dir_ / "serial";
  const pid_t serial = spawn_campaign(
      bin,
      {"--out", serial_out.string(), "--jobs", "1", "--fault-spec", spec},
      (dir_ / "serial.log").string());
  ASSERT_EQ(wait_exit_code(serial), 4);  // kExitQuarantined

  const fs::path par_out = dir_ / "par4";
  const pid_t par = spawn_campaign(
      bin, {"--out", par_out.string(), "--jobs", "4", "--fault-spec", spec},
      (dir_ / "par4.log").string(), (dir_ / "par4.err").string());
  ASSERT_EQ(wait_exit_code(par), 4);
  EXPECT_NE(slurp(dir_ / "par4.err").find("forcing --jobs 1"),
            std::string::npos);

  // Identical stdout (the FAILED lines land in the same replayed
  // positions) and identical surviving artifacts/cache.
  const std::string serial_log = slurp(dir_ / "serial.log");
  EXPECT_NE(serial_log.find("[omnivar] FAILED cell"), std::string::npos);
  EXPECT_EQ(slurp(dir_ / "par4.log"), serial_log);
  expect_identical_trees(serial_out, par_out);
}

TEST_F(CampaignSchedTest, EnumerationMatchesExecution) {
  const std::string bin = omnivar_bin();

  // --plan: every cell the selection would run, one line per cell:
  // harness<TAB>scenario<TAB>label<TAB>hash<TAB>cost.
  const pid_t plan = spawn_campaign(bin, {"--plan"},
                                    (dir_ / "plan.tsv").string());
  ASSERT_EQ(wait_exit_code(plan), 0);
  const auto units = plan_units(slurp(dir_ / "plan.tsv"));
  expect_one_unit_per_hash(units);
  std::set<std::string> planned;
  for (const auto& [hash, in] : units) planned.insert(hash);
  ASSERT_FALSE(planned.empty());

  // The same holds for the default paper campaign and for every harness
  // over several scenarios, the committed degenerate machine included.
  const std::vector<std::vector<std::string>> wider = {
      {"--plan"},
      {"--plan", "--scenario", "vera", "--scenario", "epyc-like",
       "--scenario", OMNIVAR_SCENARIO_DIR "/degenerate-pe.scenario"}};
  for (std::size_t i = 0; i < wider.size(); ++i) {
    const fs::path tsv = dir_ / ("wider" + std::to_string(i) + ".tsv");
    ASSERT_EQ(wait_exit_code(spawn_omnivar(bin, wider[i], tsv.string())), 0)
        << i;
    const auto wide_units = plan_units(slurp(tsv));
    EXPECT_GT(wide_units.size(), units.size()) << i;
    expect_one_unit_per_hash(wide_units);
  }

  // Serial execution commits exactly the enumerated cells: the cache's
  // .key marker set is the planned hash set.
  const fs::path out = dir_ / "serial";
  const pid_t run = spawn_campaign(
      bin, {"--out", out.string(), "--jobs", "1"},
      (dir_ / "serial.log").string());
  ASSERT_EQ(wait_exit_code(run), 0);
  std::set<std::string> computed;
  for (const auto& e : fs::directory_iterator(out / "cache")) {
    const std::string name = e.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".key") == 0) {
      computed.insert(name.substr(0, name.size() - 4));
    }
  }
  EXPECT_EQ(computed, planned);
}

/// The team sizes of the fig1 cells in a --plan listing (labels
/// "<platform>/t<threads>/<construct>").
std::set<std::size_t> fig1_team_sizes(const std::string& tsv) {
  std::set<std::size_t> sizes;
  std::istringstream in(tsv);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("fig1\t", 0) != 0) continue;
    const std::string label = line.substr(line.find('\t', 5) + 1);
    sizes.insert(std::stoul(label.substr(label.find("/t") + 2)));
  }
  return sizes;
}

// The paper's machines run the paper's cells however they are selected:
// every cell of the default campaign is planned by --scenario dardel or
// --scenario vera, and a `base = vera` file that overrides nothing plans
// exactly what --scenario vera does. Every other machine derives its cells
// from its geometry, even one that shares a paper machine's label or
// geometry: README's my-box (`base = dardel` on 96 HW threads) and
// dvfs-dippy (Vera's geometry under its own label) sweep thread_ladder's
// sizes, not the paper's ladders.
TEST_F(CampaignSchedTest, PaperMachinesRunThePaperCells) {
  const std::string bin = omnivar_bin();
  const auto plan = [&](const std::vector<std::string>& args,
                        const std::string& tag) {
    std::vector<std::string> argv{"--plan"};
    argv.insert(argv.end(), args.begin(), args.end());
    const fs::path tsv = dir_ / (tag + ".tsv");
    EXPECT_EQ(wait_exit_code(spawn_omnivar(bin, argv, tsv.string())), 0)
        << tag;
    return slurp(tsv);
  };

  const auto defaults = plan_units(plan({}, "default"));
  const auto dardel = plan_units(plan({"--scenario", "dardel"}, "dardel"));
  const std::string vera_plan = plan({"--scenario", "vera"}, "vera");
  const auto vera = plan_units(vera_plan);
  ASSERT_FALSE(defaults.empty());
  std::size_t missing = 0;
  std::string named;
  for (const auto& [hash, units] : defaults) {
    if (dardel.count(hash) + vera.count(hash) == 0) {
      ++missing;
      named += " [" + *units.begin() + " " + hash + "]";
    }
  }
  EXPECT_EQ(missing, 0u) << "of " << defaults.size()
                         << " default cells, planned by neither paper "
                            "scenario:"
                         << named;

  const fs::path base_vera = dir_ / "base-vera.scenario";
  std::ofstream(base_vera) << "base = vera\n";
  EXPECT_EQ(plan({"--scenario", base_vera.string()}, "base-vera"),
            vera_plan);
  EXPECT_EQ(fig1_team_sizes(vera_plan),
            (std::set<std::size_t>{2, 4, 8, 12, 16, 20, 24, 28, 30}));

  const fs::path my_box = dir_ / "my_box.scenario";
  std::ofstream(my_box) << "name = my-box\nbase = dardel\n"
                           "machine.sockets = 1\n"
                           "machine.cores_per_numa = 12\n"
                           "noise.daemon_rate = 200\n"
                           "freq.episode_rate = 0.2\n";
  EXPECT_EQ(fig1_team_sizes(plan(
                {"--only", "fig1", "--scenario", my_box.string()}, "my-box")),
            (std::set<std::size_t>{2, 4, 8, 16, 32, 64, 94}));
  EXPECT_EQ(fig1_team_sizes(plan(
                {"--only", "fig1", "--scenario", "dvfs-dippy"}, "dippy")),
            (std::set<std::size_t>{2, 4, 8, 16, 30}));
}

// Every cell's spec hash is pinned. A change that moves a cell key strands
// every cache entry written under the old one, and no other tier-1 test
// would notice. The quick-mode --plan listings (harness, scenario, label,
// spec hash, cost) of the default campaign and of the six non-paper
// presets must equal the committed files. Re-record them only with a
// kEngineVersion bump or a stated reason.
TEST_F(CampaignSchedTest, PlanIsPinned) {
  const std::string bin = omnivar_bin();
  const std::vector<std::pair<std::string, std::vector<std::string>>> plans =
      {{"plan-quick-default.tsv", {"--plan"}},
       {"plan-quick-presets.tsv",
        {"--plan", "--scenario", "epyc-like", "--scenario", "noisy-cloud",
         "--scenario", "quiet-hpc", "--scenario", "dvfs-dippy", "--scenario",
         "biglittle", "--scenario", "lopsided-numa"}}};
  for (const auto& [file, args] : plans) {
    const fs::path tsv = dir_ / file;
    ASSERT_EQ(wait_exit_code(spawn_omnivar(bin, args, tsv.string())), 0)
        << file;
    const std::string pinned =
        slurp(fs::path(OMNIVAR_TEST_DATA_DIR) / file);
    ASSERT_FALSE(pinned.empty()) << file;
    EXPECT_EQ(slurp(tsv), pinned) << file;
  }
}

// Two scenario files inheriting one catalog name would write the same
// <harness>.<scenario>.json — the second unit silently overwriting the
// first, or both racing for the path on two workers. The driver rejects
// the selection up front: usage exit 2, both selectors named, nothing run.
TEST_F(CampaignSchedTest, SameNamedScenariosAreRejected) {
  const std::string bin = omnivar_bin();
  const fs::path a = dir_ / "a.scenario";
  const fs::path b = dir_ / "b.scenario";
  std::ofstream(a) << "base = noisy-cloud\nnoise.irq_rate = 100\n";
  std::ofstream(b) << "base = noisy-cloud\nnoise.irq_rate = 200\n";
  const fs::path out = dir_ / "out";
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (!::freopen((dir_ / "run.log").c_str(), "w", stdout)) ::_exit(97);
    if (!::freopen((dir_ / "run.err").c_str(), "w", stderr)) ::_exit(97);
    ::setenv("OMNIVAR_QUICK", "1", 1);
    ::execl(bin.c_str(), bin.c_str(), "--only", "table1", "--scenario",
            a.c_str(), "--scenario", b.c_str(), "--out", out.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(98);
  }
  ASSERT_EQ(wait_exit_code(pid), 2);  // kExitUsage
  const std::string err = slurp(dir_ / "run.err");
  EXPECT_NE(err.find(a.string()), std::string::npos) << err;
  EXPECT_NE(err.find(b.string()), std::string::npos) << err;
  EXPECT_NE(err.find("noisy-cloud"), std::string::npos) << err;
  EXPECT_TRUE(slurp(dir_ / "run.log").empty());
  EXPECT_FALSE(fs::exists(out / "campaign.json"));
}

// A width the host cannot spawn threads for must never reach the executor,
// where it aborts the process (exit 134: std::system_error from thread
// creation, or std::length_error for SIZE_MAX). Past cli::kMaxJobs the value
// is a malformed one: reported on stderr, ignored, and the campaign runs
// serial.
TEST_F(CampaignSchedTest, OversizedJobsIsReportedNotFatal) {
  const std::string bin = omnivar_bin();
  EXPECT_EQ(wait_exit_code(spawn_omnivar(
                bin, {"--only", "table1", "--jobs", "100000"},
                (dir_ / "flag.log").string(), {},
                (dir_ / "flag.err").string())),
            0);
  const std::string flag_err = slurp(dir_ / "flag.err");
  EXPECT_NE(flag_err.find("--jobs value '100000'"), std::string::npos)
      << flag_err;
  EXPECT_NE(flag_err.find("from 0 to 1024"), std::string::npos) << flag_err;
  EXPECT_FALSE(slurp(dir_ / "flag.log").empty());
}

// The command line is the only configuration input. Exporting every
// variable named after a flag (width, scenario, fault plan, retries, cell
// timeout) must leave a campaign exactly as it is without them: any one of
// them taking effect would move the exit code, stdout or the cache.
TEST_F(CampaignSchedTest, EnvironmentDoesNotChangeACampaign) {
  const std::string bin = omnivar_bin();
  const Env exported = {
      {"OMNIVAR_JOBS", "3"},
      {"OMNIVAR_CELL_JOBS", "2"},
      {"OMNIVAR_SCENARIO", "noisy-cloud"},
      {"OMNIVAR_FAULT_SPEC", "cell_throw@1"},
      {"OMNIVAR_RETRY_CELLS", "2"},
      {"OMNIVAR_CELL_TIMEOUT_MS", "1"},
  };
  const fs::path plain = dir_ / "plain";
  const fs::path with_env = dir_ / "with_env";
  ASSERT_EQ(wait_exit_code(spawn_omnivar(
                bin, {"--only", "fig1", "--out", plain.string()},
                (dir_ / "plain.log").string())),
            0);
  EXPECT_EQ(wait_exit_code(spawn_omnivar(
                bin, {"--only", "fig1", "--out", with_env.string()},
                (dir_ / "with_env.log").string(), exported,
                (dir_ / "with_env.err").string())),
            0)
      << slurp(dir_ / "with_env.err");
  const std::string plain_log = slurp(dir_ / "plain.log");
  ASSERT_FALSE(plain_log.empty());
  EXPECT_EQ(slurp(dir_ / "with_env.log"), plain_log);
  expect_identical_trees(plain, with_env);
  // Every width prints the same bytes, so the width variables can only
  // show in the recorded width: still the serial default.
  EXPECT_NE(slurp(with_env / "campaign.json").find("\"jobs\": 1,"),
            std::string::npos);
}

// The result cache is the campaign's resume mechanism: a campaign killed at
// an arbitrary point (not only at a named fault site) and re-run with the
// same command into the same --out loses at most the cells it had not yet
// committed. Every .key marker lands after its data, so a marker present
// after the kill is a complete entry the re-run serves, and a cell without
// one is recomputed from scratch; commits are tmp + rename, so the kill can
// leave nothing torn behind, only "<file>.tmp.<pid>" orphans, which the
// re-run removes before it computes.
TEST_F(CampaignSchedTest, KilledCampaignResumesCellByCell) {
  const std::string bin = omnivar_bin();
  const auto campaign = [&](const fs::path& out, const std::string& tag) {
    return spawn_campaign(bin, {"--out", out.string(), "--jobs", "4"},
                          (dir_ / (tag + ".log")).string(),
                          (dir_ / (tag + ".err")).string());
  };

  const fs::path clean = dir_ / "clean";
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(wait_exit_code(campaign(clean, "clean")), 0);
  const std::chrono::duration<double> clean_time =
      std::chrono::steady_clock::now() - t0;
  const std::string clean_log = slurp(dir_ / "clean.log");
  const auto expected = artifact_contents(clean);
  const std::size_t total = committed_cells(clean);
  ASSERT_FALSE(clean_log.empty());
  ASSERT_GT(total, 0u);

  // Kill delays are seeded fractions of the clean run's wall time.
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> fraction(0.05, 0.95);
  std::size_t mid_campaign = 0;
  std::string landed;  // committed cells per kill, for the failure message
  for (int i = 0; i < 8; ++i) {
    const std::string tag = "kill" + std::to_string(i);
    const fs::path out = dir_ / tag;
    const auto delay = fraction(rng) * clean_time;
    const pid_t victim = campaign(out, tag + ".killed");
    std::this_thread::sleep_for(delay);
    // Unreaped until wait_exit_code, so the pid cannot have been reused
    // even when the campaign finished before the signal.
    ASSERT_EQ(::kill(victim, SIGKILL), 0) << tag;
    (void)wait_exit_code(victim);
    const std::size_t committed = committed_cells(out);
    if (committed > 0 && committed < total) ++mid_campaign;
    landed.push_back(' ');
    landed += std::to_string(committed);

    ASSERT_EQ(wait_exit_code(campaign(out, tag)), 0) << tag;
    EXPECT_EQ(slurp(dir_ / (tag + ".log")), clean_log) << tag;
    const auto computed = computed_per_unit(slurp(dir_ / (tag + ".err")));
    EXPECT_EQ(computed.size(), kHarnesses.size() * kScenarios.size()) << tag;
    std::size_t recomputed = 0;
    for (const auto& [unit, n] : computed) recomputed += n;
    EXPECT_EQ(recomputed, total - committed)
        << tag << ": " << committed << " of " << total
        << " cells were committed when the kill landed";

    // The re-run leaves exactly the clean tree: it removes the killed
    // process's temp files before computing.
    SCOPED_TRACE(tag);
    expect_same_contents(expected, artifact_contents(out));
  }
  // Kills past the end or before the first commit test nothing.
  EXPECT_GE(mid_campaign, 2u) << "committed cells per kill:" << landed
                               << " (of " << total << ")";
}

}  // namespace
