// Unit tests for the cli layer: option parsing, the harness registry and
// glob selection, the RunContext spec-hash result cache, and artifact
// determinism.

#include "cli/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "cli/registry.hpp"
#include "core/faultinject.hpp"
#include "scenario/registry.hpp"

namespace omv::cli {
namespace {

/// The one-worker executor every context here runs on.
core::Executor& serial() {
  static core::Executor executor(1);
  return executor;
}

// ---------------------------------------------------------------- options

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(Options, ParsesAllFlags) {
  std::vector<std::string> args{"prog",   "--list", "--only",     "fig*",
                                "--jobs", "3",      "--scenario", "vera",
                                "--out",  "/tmp/x", "--scenarios"};
  auto argv = argv_of(args);
  const auto o = parse_options(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(o.list);
  EXPECT_TRUE(o.list_scenarios);
  ASSERT_EQ(o.only.size(), 1u);
  EXPECT_EQ(o.only[0], "fig*");
  EXPECT_EQ(o.jobs, 3u);
  ASSERT_EQ(o.scenarios.size(), 1u);
  EXPECT_EQ(o.scenarios[0], "vera");
  EXPECT_EQ(o.out_dir, "/tmp/x");
  EXPECT_TRUE(o.errors.empty());
}

TEST(Options, ScenarioEqualsForm) {
  std::vector<std::string> args{"prog", "--scenario=epyc-like"};
  auto argv = argv_of(args);
  const auto o = parse_options(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(o.scenarios.size(), 1u);
  EXPECT_EQ(o.scenarios[0], "epyc-like");
}

TEST(Options, EqualsFormAndRepeatedOnly) {
  std::vector<std::string> args{"prog", "--only=fig1", "--only=table*",
                                "--jobs=2", "--out=/tmp/y"};
  auto argv = argv_of(args);
  const auto o = parse_options(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(o.only.size(), 2u);
  EXPECT_EQ(o.only[1], "table*");
  EXPECT_EQ(o.jobs, 2u);
  EXPECT_EQ(o.out_dir, "/tmp/y");
}

TEST(Options, MalformedAndUnknownArgumentsAreCollected) {
  std::vector<std::string> args{
      "prog",   "--jobs", "-4",     "--bogus", "--checkpoint-every", "4",
      "--resume", "auto", "--only", "fig1",    "--only"};
  auto argv = argv_of(args);
  const auto o = parse_options(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(o.jobs, 0u);  // -4 rejected, not wrapped
  // Bad jobs, five unknown words, missing value. The checkpoint flags are
  // not options: each word is reported as unknown and skipped, and the
  // selection after them still parses.
  ASSERT_EQ(o.errors.size(), 7u);
  for (const std::string word : {"--checkpoint-every", "4", "--resume",
                                 "auto"}) {
    EXPECT_NE(std::find(o.errors.begin(), o.errors.end(),
                        "unknown argument '" + word + "'"),
              o.errors.end())
        << word;
  }
  EXPECT_EQ(o.only, std::vector<std::string>{"fig1"});
}

TEST(Options, ParsesSupervisionFlags) {
  std::vector<std::string> args{"prog",           "--retry-cells", "2",
                                "--cell-timeout", "1500",
                                "--fault-spec",   "cell_throw@3"};
  auto argv = argv_of(args);
  const auto o = parse_options(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(o.errors.empty());
  EXPECT_EQ(o.retry_cells, 2u);
  EXPECT_EQ(o.cell_timeout_ms, 1500u);
  EXPECT_EQ(o.fault_spec, "cell_throw@3");

  std::vector<std::string> bad{"prog", "--retry-cells=x",
                               "--cell-timeout=-5"};
  auto bargv = argv_of(bad);
  const auto b = parse_options(static_cast<int>(bargv.size()), bargv.data());
  EXPECT_EQ(b.errors.size(), 2u);
  EXPECT_EQ(b.retry_cells, 0u);
  EXPECT_EQ(b.cell_timeout_ms, 0u);
}

// --------------------------------------------------------------- registry

// Registry::match selects harnesses through fault::glob_match.
TEST(Registry, GlobMatch) {
  using fault::glob_match;
  EXPECT_TRUE(glob_match("fig3", "fig3"));
  EXPECT_FALSE(glob_match("fig3", "fig31"));
  EXPECT_TRUE(glob_match("fig*", "fig31"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("fig?", "fig7"));
  EXPECT_FALSE(glob_match("fig?", "fig"));
  EXPECT_TRUE(glob_match("*bench*", "ext_taskbench"));
  EXPECT_FALSE(glob_match("table*", "fig1"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_FALSE(glob_match("", "x"));
}

TEST(Registry, AddFindMatchAndDuplicateRejection) {
  Registry r;
  r.add({"fig2", "two", [](RunContext&) { return 0; }});
  r.add({"fig10", "ten", [](RunContext&) { return 0; }});
  r.add({"table1", "t1", [](RunContext&) { return 0; }});
  EXPECT_THROW(r.add({"fig2", "dup", [](RunContext&) { return 0; }}),
               std::invalid_argument);

  // Deterministic name-sorted listing regardless of insertion order.
  ASSERT_EQ(r.all().size(), 3u);
  EXPECT_EQ(r.all()[0].name, "fig10");
  EXPECT_EQ(r.all()[1].name, "fig2");
  EXPECT_EQ(r.all()[2].name, "table1");

  EXPECT_NE(r.find("table1"), nullptr);
  EXPECT_EQ(r.find("nope"), nullptr);

  const auto figs = r.match({"fig*"});
  ASSERT_EQ(figs.size(), 2u);
  EXPECT_EQ(r.match({}).size(), 3u);  // empty globs = everything
  EXPECT_TRUE(r.match({"zzz*"}).empty());
}

// ------------------------------------------------------------ run context

class CampaignCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("omnivar_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static ExperimentSpec small_spec() {
    ExperimentSpec spec;
    spec.runs = 2;
    spec.reps = 3;
    spec.warmup = 0;
    spec.seed = 11;
    return spec;
  }

  static RunMatrix make_matrix() {
    RunMatrix m;
    m.add_run({1.0, 2.0, 3.0});
    m.add_run({4.0 / 3.0, 5.0, 6.0});
    return m;
  }

  std::string dir_;
};

TEST_F(CampaignCacheTest, SecondInvocationIsServedFromCache) {
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  SpecKey key;
  key.add("bench", "fake");

  RunContext ctx1("testh", serial(), dir_);
  const auto m1 = ctx1.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(ctx1.cache_misses(), 1u);
  EXPECT_EQ(ctx1.cache_hits(), 0u);

  RunContext ctx2("testh", serial(), dir_);
  const auto m2 = ctx2.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 1);  // not recomputed
  EXPECT_EQ(ctx2.cache_hits(), 1u);
  ASSERT_EQ(m2.runs(), m1.runs());
  for (std::size_t r = 0; r < m1.runs(); ++r) {
    for (std::size_t k = 0; k < m1.run(r).size(); ++k) {
      EXPECT_EQ(m2.run(r)[k], m1.run(r)[k]);  // bit-identical
    }
  }
}

TEST_F(CampaignCacheTest, DifferentKeyOrHarnessOrSpecMisses) {
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  SpecKey key;
  key.add("bench", "fake");
  {
    RunContext ctx("testh", serial(), dir_);
    (void)ctx.protocol("cell", small_spec(), key, compute);
  }
  {
    SpecKey other;
    other.add("bench", "other");  // different config
    RunContext ctx("testh", serial(), dir_);
    (void)ctx.protocol("cell", small_spec(), other, compute);
  }
  {
    RunContext ctx("otherh", serial(), dir_);  // different harness
    (void)ctx.protocol("cell", small_spec(), key, compute);
  }
  {
    auto spec = small_spec();
    spec.seed = 12;  // different seed
    RunContext ctx("testh", serial(), dir_);
    (void)ctx.protocol("cell", spec, key, compute);
  }
  EXPECT_EQ(computes, 4);
}

TEST_F(CampaignCacheTest, CorruptCsvOrKeyMismatchRecomputes) {
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  SpecKey key;
  key.add("bench", "fake");
  RunContext ctx1("testh", serial(), dir_);
  (void)ctx1.protocol("cell", small_spec(), key, compute);
  ASSERT_EQ(computes, 1);

  // Corrupt the stored CSV: the validated load must fall back to compute.
  const std::string cache = dir_ + "/cache";
  for (const auto& e : std::filesystem::directory_iterator(cache)) {
    if (e.path().extension() == ".csv") {
      std::ofstream f(e.path());
      f << "run,rep,time\n0,0,1.0,garbage\n";
    }
  }
  RunContext ctx2("testh", serial(), dir_);
  (void)ctx2.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(ctx2.cache_hits(), 0u);

  // Healthy again after the recompute rewrote it.
  RunContext ctx3("testh", serial(), dir_);
  (void)ctx3.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);

  // A stale .key (hash collision / hand-edited entry) must also recompute.
  for (const auto& e : std::filesystem::directory_iterator(cache)) {
    if (e.path().extension() == ".key") {
      std::ofstream f(e.path());
      f << "not-the-canonical-key";
    }
  }
  RunContext ctx4("testh", serial(), dir_);
  (void)ctx4.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 3);
}

TEST_F(CampaignCacheTest, TruncatedButParseableCacheCsvRecomputes) {
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  SpecKey key;
  key.add("bench", "fake");
  RunContext ctx1("testh", serial(), dir_);
  (void)ctx1.protocol("cell", small_spec(), key, compute);
  ASSERT_EQ(computes, 1);

  // Rewrite the entry as a valid CSV with the right run count but too few
  // reps (an interrupted copy): the shape check must veto the hit.
  for (const auto& e :
       std::filesystem::directory_iterator(dir_ + "/cache")) {
    if (e.path().extension() == ".csv") {
      std::ofstream f(e.path());
      f << "run,rep,time\n# runs=2\n0,0,1.0\n0,1,2.0\n0,2,3.0\n1,0,4.0\n";
    }
  }
  RunContext ctx2("testh", serial(), dir_);
  (void)ctx2.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(ctx2.cache_hits(), 0u);
}

TEST_F(CampaignCacheTest, ForgedRunCountInCacheCsvRecomputes) {
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  SpecKey key;
  key.add("bench", "fake");
  RunContext ctx1("testh", serial(), dir_);
  const auto cold = ctx1.protocol("cell", small_spec(), key, compute);
  ASSERT_EQ(computes, 1);

  // Behind the valid .key, forge the run count: the reader must refuse it
  // before allocating, and the cell recomputes the very same bytes.
  std::filesystem::path csv;
  for (const auto& e :
       std::filesystem::directory_iterator(dir_ + "/cache")) {
    if (e.path().extension() == ".csv") csv = e.path();
  }
  ASSERT_FALSE(csv.empty());
  const auto slurp = [&] {
    std::ifstream f(csv, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
  };
  const std::string original = slurp();
  const std::string declared = "# runs=2\n";
  const std::size_t at = original.find(declared);
  ASSERT_NE(at, std::string::npos);
  {
    std::ofstream f(csv, std::ios::binary | std::ios::trunc);
    f << original.substr(0, at) << "# runs=18446744073709551615\n"
      << original.substr(at + declared.size());
  }

  RunContext ctx2("testh", serial(), dir_);
  const auto warm = ctx2.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(ctx2.cache_hits(), 0u);
  ASSERT_EQ(warm.runs(), cold.runs());
  for (std::size_t r = 0; r < cold.runs(); ++r) {
    ASSERT_EQ(warm.run(r).size(), cold.run(r).size());
    for (std::size_t k = 0; k < cold.run(r).size(); ++k) {
      EXPECT_EQ(warm.run(r)[k], cold.run(r)[k]);
    }
  }
  EXPECT_EQ(slurp(), original);
}

TEST_F(CampaignCacheTest, SidecarVetoForcesRecompute) {
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  SpecKey key;
  key.add("bench", "fake");
  bool sidecar_ok = false;
  const auto save = [](const std::string& stem) {
    std::ofstream f(stem + ".extra");
    f << "payload";
  };
  const auto load = [&](const std::string& stem) {
    std::ifstream f(stem + ".extra");
    return sidecar_ok && f.good();
  };
  RunContext ctx1("testh", serial(), dir_);
  (void)ctx1.protocol("cell", small_spec(), key, compute, save, load);
  EXPECT_EQ(computes, 1);

  // load_extra returning false vetoes the hit.
  RunContext ctx2("testh", serial(), dir_);
  (void)ctx2.protocol("cell", small_spec(), key, compute, save, load);
  EXPECT_EQ(computes, 2);

  sidecar_ok = true;
  RunContext ctx3("testh", serial(), dir_);
  (void)ctx3.protocol("cell", small_spec(), key, compute, save, load);
  EXPECT_EQ(computes, 2);  // sidecar accepted: cache hit
  EXPECT_EQ(ctx3.cache_hits(), 1u);
}

TEST_F(CampaignCacheTest, NoOutDirDisablesCaching) {
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  SpecKey key;
  key.add("bench", "fake");
  RunContext ctx("testh", serial(), "");
  (void)ctx.protocol("cell", small_spec(), key, compute);
  (void)ctx.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_FALSE(ctx.caching());
}

TEST_F(CampaignCacheTest, ArtifactJsonIsDeterministicAndComplete) {
  const auto build = [&](RunContext& ctx) {
    SpecKey key;
    key.add("bench", "fake");
    (void)ctx.protocol("cell", small_spec(), key,
                       [] { return make_matrix(); });
    report::Series s("threads", {"a", "b"});
    s.add(1.0, {0.5, 1.0 / 3.0});
    // Silence the print during tests? The print goes to stdout; gtest
    // tolerates it and the byte-stability of the artifact is the point.
    ctx.series("main", s, 3);
    report::Table t({"k", "v"});
    t.add_row({"x", "1"});
    ctx.record_table("tbl", t);
    ctx.metric("speed", 2.5);
    ctx.verdict(true, "shape holds");
  };
  RunContext ctx1("testh", serial(), dir_);
  build(ctx1);
  const auto a1 = ctx1.artifact_json("desc");

  RunContext ctx2("testh", serial(), dir_);  // second pass: cells from cache
  build(ctx2);
  const auto a2 = ctx2.artifact_json("desc");
  EXPECT_EQ(a1, a2);  // byte-stable across cached re-runs

  EXPECT_NE(a1.find("\"schema\": \"omnivar-artifact-v2\""),
            std::string::npos);
  EXPECT_NE(a1.find("\"scenario\": null"), std::string::npos);
  EXPECT_NE(a1.find("\"platforms\""), std::string::npos);
  EXPECT_NE(a1.find("\"harness\": \"testh\""), std::string::npos);
  EXPECT_NE(a1.find("\"spec_hash\""), std::string::npos);
  EXPECT_NE(a1.find("\"x_name\": \"threads\""), std::string::npos);
  EXPECT_NE(a1.find("0.3333333333333333"), std::string::npos);  // full prec
  EXPECT_NE(a1.find("\"shape holds\""), std::string::npos);
  EXPECT_NE(a1.find("\"speed\""), std::string::npos);
}

TEST_F(CampaignCacheTest, PreStampCacheKeyIsRejected) {
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  SpecKey key;
  key.add("bench", "fake");
  RunContext ctx1("testh", serial(), dir_);
  (void)ctx1.protocol("cell", small_spec(), key, compute);
  ASSERT_EQ(computes, 1);

  // The committed .key opens with the cache schema stamp.
  for (const auto& e :
       std::filesystem::directory_iterator(dir_ + "/cache")) {
    if (e.path().extension() == ".key") {
      std::ifstream f(e.path());
      std::string first;
      std::getline(f, first);
      EXPECT_EQ(first, std::string(kCacheKeySchema));
    }
  }

  // Rewrite the .key as an old-generation entry: the bare canonical key
  // without the stamp (what pre-stamp caches stored). The hit must be
  // rejected and the cell recomputed.
  SpecKey full = key;
  full.add("harness", "testh");
  full.add("label", "cell");
  full.add_spec(small_spec());
  for (const auto& e :
       std::filesystem::directory_iterator(dir_ + "/cache")) {
    if (e.path().extension() == ".key") {
      std::ofstream f(e.path(), std::ios::binary);
      f << full.canonical();
    }
  }
  RunContext ctx2("testh", serial(), dir_);
  (void)ctx2.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(ctx2.cache_hits(), 0u);

  // A wrong-generation stamp is equally rejected.
  for (const auto& e :
       std::filesystem::directory_iterator(dir_ + "/cache")) {
    if (e.path().extension() == ".key") {
      std::ofstream f(e.path(), std::ios::binary);
      f << "omnivar-cache-v1\n" << full.canonical();
    }
  }
  RunContext ctx3("testh", serial(), dir_);
  (void)ctx3.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 3);
}

TEST_F(CampaignCacheTest, EngineVersionStampInvalidatesPreBumpCaches) {
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  SpecKey key;
  key.add("bench", "fake");
  ::unsetenv("OMNIVAR_ENGINE_VERSION");
  EXPECT_EQ(engine_version(), kEngineVersion);

  RunContext ctx1("testh", serial(), dir_);
  (void)ctx1.protocol("cell", small_spec(), key, compute);
  ASSERT_EQ(computes, 1);

  // Same engine generation: served from cache.
  RunContext ctx2("testh", serial(), dir_);
  (void)ctx2.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(ctx2.cache_hits(), 1u);

  // A different engine generation (the OMNIVAR_ENGINE_VERSION hook stands
  // in for a rebuilt binary with a bumped kEngineVersion): every cell key
  // hashes apart, so the pre-bump dir degrades to a recompute wholesale.
  ::setenv("OMNIVAR_ENGINE_VERSION", "test-engine-next", 1);
  EXPECT_EQ(engine_version(), "test-engine-next");
  RunContext ctx3("testh", serial(), dir_);
  (void)ctx3.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(ctx3.cache_hits(), 0u);

  // Each generation's entries stay valid under that generation.
  RunContext ctx4("testh", serial(), dir_);
  (void)ctx4.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(ctx4.cache_hits(), 1u);
  ::unsetenv("OMNIVAR_ENGINE_VERSION");
  RunContext ctx5("testh", serial(), dir_);
  (void)ctx5.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(ctx5.cache_hits(), 1u);
}

TEST_F(CampaignCacheTest, AsymmetricScenarioArtifactCarriesGroupBlock) {
  const auto scn = scenario::ScenarioRegistry::instance().get("biglittle");
  RunContext ctx("testh", serial(), "", scn);
  const auto a = ctx.artifact_json("desc");
  EXPECT_NE(a.find("\"name\": \"biglittle\""), std::string::npos);
  EXPECT_NE(a.find("\"groups\""), std::string::npos);
  EXPECT_NE(a.find("\"name\": \"P\""), std::string::npos);
  EXPECT_NE(a.find("\"name\": \"E\""), std::string::npos);
  EXPECT_NE(a.find("\"work_rate\": 0.55"), std::string::npos);
  EXPECT_NE(a.find("\"socket\": 0"), std::string::npos);
  // The uniform geometry keys are absent on group machines.
  EXPECT_EQ(a.find("\"cores_per_numa\""), std::string::npos);
}

TEST_F(CampaignCacheTest, ScenarioRidesOnContextAndArtifact) {
  const auto scn = scenario::ScenarioRegistry::instance().get("epyc-like");
  RunContext ctx("testh", serial(), "", scn);
  ASSERT_NE(ctx.scenario(), nullptr);
  EXPECT_EQ(ctx.scenario()->name, "epyc-like");
  ctx.note_platform("EpycLike", scn.fingerprint());
  ctx.note_platform("EpycLike", scn.fingerprint());  // deduplicated
  const auto a = ctx.artifact_json("desc");
  EXPECT_NE(a.find("\"name\": \"epyc-like\""), std::string::npos);
  EXPECT_NE(a.find("\"fingerprint\": \"" + scn.fingerprint() + "\""),
            std::string::npos);
  EXPECT_NE(a.find("\"cores_per_numa\": 12"), std::string::npos);
  // The platform appears exactly once.
  const auto first = a.find("\"name\": \"EpycLike\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(a.find("\"name\": \"EpycLike\"", first + 1),
            std::string::npos);
}

TEST_F(CampaignCacheTest, VerdictTracksFailures) {
  RunContext ctx("testh", serial(), "");
  ctx.verdict(true, "good");
  ctx.verdict(false, "bad");
  ASSERT_EQ(ctx.verdicts().size(), 2u);
  EXPECT_TRUE(ctx.verdicts()[0].ok);
  EXPECT_FALSE(ctx.verdicts()[1].ok);
}

// ------------------------------------------------- supervision/quarantine

class CampaignFaultTest : public CampaignCacheTest {
 protected:
  void SetUp() override {
    CampaignCacheTest::SetUp();
    fault::set_active_spec("");
  }
  void TearDown() override {
    fault::set_active_spec("");
    CampaignCacheTest::TearDown();
  }
};

TEST_F(CampaignFaultTest, ThrowingCellIsQuarantinedWithFailureRecord) {
  SpecKey key;
  key.add("bench", "fake");
  RunContext ctx("testh", serial(), dir_);
  ctx.configure_supervision({.retries = 0});
  try {
    (void)ctx.protocol("cell", small_spec(), key, []() -> RunMatrix {
      throw std::runtime_error("model blew up");
    });
    FAIL() << "expected CellQuarantined";
  } catch (const CellQuarantined&) {
  }
  ASSERT_EQ(ctx.failures().size(), 1u);
  const auto& f = ctx.failures()[0];
  EXPECT_EQ(f.label, "cell");
  EXPECT_EQ(f.hash.size(), 16u);  // the cell's spec hash
  EXPECT_EQ(f.taxonomy, "exception");
  EXPECT_EQ(f.error, "model blew up");
  EXPECT_EQ(f.attempts, 1u);
  // The failed cell committed nothing: no .key marker exists.
  for (const auto& e :
       std::filesystem::directory_iterator(dir_ + "/cache")) {
    EXPECT_NE(e.path().extension(), ".key");
  }
}

TEST_F(CampaignFaultTest, TornCacheWriteIsRetriedToACleanCommit) {
  // First commit attempt tears the cache CSV mid-write; the retry
  // recomputes and commits cleanly — and the entry then serves hits.
  fault::set_active_spec("torn_write:cache@1");
  SpecKey key;
  key.add("bench", "fake");
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  RunContext ctx("testh", serial(), dir_);
  ctx.configure_supervision({.retries = 1});
  const auto m = ctx.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);  // attempt 1 tore, attempt 2 committed
  EXPECT_EQ(m.runs(), 2u);
  EXPECT_TRUE(ctx.failures().empty());

  RunContext ctx2("testh", serial(), dir_);
  (void)ctx2.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(ctx2.cache_hits(), 1u);
}

TEST_F(CampaignFaultTest, TornKeyWriteDegradesToAPlainMissNextRun) {
  // The .key commit marker is written LAST: tearing it leaves valid data
  // behind a torn marker, which the next invocation treats as a miss —
  // never as a hit over unvalidated bytes.
  fault::set_active_spec("torn_write:key@1");
  SpecKey key;
  key.add("bench", "fake");
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return make_matrix();
  };
  {
    RunContext ctx("testh", serial(), dir_);
    ctx.configure_supervision({.retries = 0});
    EXPECT_THROW((void)ctx.protocol("cell", small_spec(), key, compute),
                 CellQuarantined);
    ASSERT_EQ(ctx.failures().size(), 1u);
    EXPECT_EQ(ctx.failures()[0].taxonomy, "io");
  }
  fault::set_active_spec("");
  RunContext ctx2("testh", serial(), dir_);
  (void)ctx2.protocol("cell", small_spec(), key, compute);
  EXPECT_EQ(computes, 2);  // torn marker = miss, recomputed
  EXPECT_EQ(ctx2.cache_hits(), 0u);
}

TEST_F(CampaignFaultTest, SurvivingCellsAreByteIdenticalAfterAFaultRun) {
  // The differential-proof core: a campaign where one cell faults leaves
  // every other cell's cache entry byte-identical to a healthy campaign's.
  SpecKey key_a;
  key_a.add("bench", "a");
  SpecKey key_b;
  key_b.add("bench", "b");
  const auto compute = [] { return make_matrix(); };

  // Healthy campaign into dir A.
  const std::string dir_healthy = dir_ + "_healthy";
  std::filesystem::remove_all(dir_healthy);
  {
    RunContext ctx("testh", serial(), dir_healthy);
    (void)ctx.protocol("cell_a", small_spec(), key_a, compute);
    (void)ctx.protocol("cell_b", small_spec(), key_b, compute);
  }

  // Faulted campaign into dir B: cell_a quarantines, cell_b survives.
  fault::set_active_spec("cell_throw:cell_a");
  {
    RunContext ctx("testh", serial(), dir_);
    ctx.configure_supervision({.retries = 0});
    EXPECT_THROW((void)ctx.protocol("cell_a", small_spec(), key_a, compute),
                 CellQuarantined);
  }
  fault::set_active_spec("");
  {
    // The harness re-runs (the campaign driver reruns it or a dependent
    // cell-only harness runs next); cell_b computes cleanly.
    RunContext ctx("testh", serial(), dir_);
    (void)ctx.protocol("cell_b", small_spec(), key_b, compute);
  }

  // Every cache artifact present in the faulted dir matches the healthy
  // dir byte-for-byte.
  std::size_t compared = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(dir_ + "/cache")) {
    const auto healthy =
        std::filesystem::path(dir_healthy) / "cache" / e.path().filename();
    ASSERT_TRUE(std::filesystem::exists(healthy)) << e.path();
    std::ifstream f1(e.path(), std::ios::binary);
    std::ifstream f2(healthy, std::ios::binary);
    std::string b1((std::istreambuf_iterator<char>(f1)), {});
    std::string b2((std::istreambuf_iterator<char>(f2)), {});
    EXPECT_EQ(b1, b2) << e.path();
    ++compared;
  }
  EXPECT_EQ(compared, 2u);  // cell_b's .csv + .key; cell_a left nothing
  std::filesystem::remove_all(dir_healthy);
}

}  // namespace
}  // namespace omv::cli
