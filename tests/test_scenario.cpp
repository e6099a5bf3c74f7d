// Scenario layer tests: catalog lookup, the differential pin of the
// dardel/vera presets against the legacy factory bundles, serialization /
// file-load fingerprint round-trips, and the parser's error paths.

#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "topo/topology.hpp"

namespace omv::scenario {
namespace {

// ---------------------------------------------------------------- catalog

TEST(ScenarioRegistry, CatalogHoldsPaperPlatformsAndNewPresets) {
  const auto& reg = ScenarioRegistry::instance();
  ASSERT_GE(reg.all().size(), 8u);
  for (const char* name : {"dardel", "vera", "epyc-like", "noisy-cloud",
                           "quiet-hpc", "dvfs-dippy", "biglittle",
                           "lopsided-numa"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  // Name-sorted listing.
  for (std::size_t i = 1; i < reg.all().size(); ++i) {
    EXPECT_LT(reg.all()[i - 1].name, reg.all()[i].name);
  }
  // Fingerprints are pairwise distinct (a shared fingerprint would let
  // the campaign cache serve one scenario's cells to another).
  for (const auto& a : reg.all()) {
    for (const auto& b : reg.all()) {
      if (&a != &b) {
        EXPECT_NE(a.fingerprint(), b.fingerprint());
      }
    }
  }
}

TEST(ScenarioRegistry, UnknownNameThrowsWithCatalog) {
  const auto& reg = ScenarioRegistry::instance();
  EXPECT_EQ(reg.find("hal9000"), nullptr);
  try {
    (void)reg.get("hal9000");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("dardel"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("vera"), std::string::npos);
  }
}

TEST(ScenarioResolve, NameResolvesPathLoadsOtherThrows) {
  EXPECT_EQ(resolve("vera").name, "vera");
  EXPECT_THROW((void)resolve("not-a-scenario"), std::runtime_error);
  // Looks like a path (contains '/' or '.') but does not exist.
  EXPECT_THROW((void)resolve("/nonexistent/path.scenario"),
               std::runtime_error);
}

// ----------------------------------------------- differential factory pin

void expect_machine_equal(const topo::Machine& a, const topo::Machine& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.base_ghz(), b.base_ghz());
  EXPECT_EQ(a.max_ghz(), b.max_ghz());
  ASSERT_EQ(a.n_threads(), b.n_threads());
  EXPECT_EQ(a.n_cores(), b.n_cores());
  EXPECT_EQ(a.n_numa(), b.n_numa());
  EXPECT_EQ(a.n_sockets(), b.n_sockets());
  for (std::size_t h = 0; h < a.n_threads(); ++h) {
    EXPECT_EQ(a.thread(h).core, b.thread(h).core) << h;
    EXPECT_EQ(a.thread(h).numa, b.thread(h).numa) << h;
    EXPECT_EQ(a.thread(h).socket, b.thread(h).socket) << h;
    EXPECT_EQ(a.thread(h).smt_index, b.thread(h).smt_index) << h;
  }
}

TEST(ScenarioDifferential, DardelPresetIsBitIdenticalToLegacyFactories) {
  const auto& s = ScenarioRegistry::instance().get("dardel");
  EXPECT_EQ(s.display, "Dardel");
  expect_machine_equal(s.machine.build(), topo::Machine::dardel());
  // Substituting the legacy bundle must not move the fingerprint: the
  // fingerprint covers every model parameter bit-exactly (shortest
  // round-trip doubles), so equality here pins every field of every
  // config struct at once.
  ScenarioSpec probe = s;
  probe.sim = sim::SimConfig::dardel();
  probe.freq_session = sim::FreqConfig::dardel();
  EXPECT_EQ(probe.fingerprint(), s.fingerprint());
}

TEST(ScenarioDifferential, VeraPresetIsBitIdenticalToLegacyFactories) {
  const auto& s = ScenarioRegistry::instance().get("vera");
  EXPECT_EQ(s.display, "Vera");
  expect_machine_equal(s.machine.build(), topo::Machine::vera());
  ScenarioSpec probe = s;
  probe.sim = sim::SimConfig::vera();
  probe.freq_session = sim::FreqConfig::vera_dippy();
  EXPECT_EQ(probe.fingerprint(), s.fingerprint());
}

TEST(ScenarioDifferential, FingerprintMovesWithAnyKnob) {
  const auto& base = ScenarioRegistry::instance().get("vera");
  {
    ScenarioSpec s = base;
    s.sim.noise.daemon_rate += 1.0;
    EXPECT_NE(s.fingerprint(), base.fingerprint());
  }
  {
    ScenarioSpec s = base;
    s.machine.cores_per_numa += 1;
    EXPECT_NE(s.fingerprint(), base.fingerprint());
  }
  {
    ScenarioSpec s = base;
    s.freq_session.episode_rate *= 2.0;
    EXPECT_NE(s.fingerprint(), base.fingerprint());
  }
  {
    ScenarioSpec s = base;
    s.name = "vera2";
    EXPECT_NE(s.fingerprint(), base.fingerprint());
  }
}

// ------------------------------------------------- asymmetric presets (v2)

TEST(ScenarioAsymmetric, BigLittleComposesIntoOneHeterogeneousMachine) {
  const auto& s = ScenarioRegistry::instance().get("biglittle");
  ASSERT_TRUE(s.machine.asymmetric());
  EXPECT_EQ(s.machine.n_cores(), 8u);
  EXPECT_EQ(s.machine.n_threads(), 12u);
  const topo::Machine m = s.machine.build();
  EXPECT_EQ(m.n_cores(), 8u);
  EXPECT_EQ(m.n_threads(), 12u);
  EXPECT_EQ(m.n_numa(), 2u);
  EXPECT_EQ(m.n_sockets(), 1u);  // E cluster pinned onto the P socket
  EXPECT_EQ(m.max_smt_per_core(), 2u);
  EXPECT_EQ(m.smt_of_core(0), 2u);  // P
  EXPECT_EQ(m.smt_of_core(4), 1u);  // E
  ASSERT_EQ(m.classes().size(), 2u);
  EXPECT_EQ(m.classes()[0].name, "P");
  EXPECT_EQ(m.classes()[1].name, "E");
  EXPECT_EQ(m.core_class(0), 0u);
  EXPECT_EQ(m.core_class(7), 1u);
  EXPECT_DOUBLE_EQ(m.core_max_ghz(0), 3.8);
  EXPECT_DOUBLE_EQ(m.core_max_ghz(7), 2.6);
  // Linux-convention numbering generalized: primaries 0..7 (= core ids),
  // the P cores' second siblings 8..11.
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_EQ(m.thread(c).core, c);
    EXPECT_EQ(m.thread(c).smt_index, 0u);
  }
  EXPECT_EQ(m.thread(8).core, 0u);
  EXPECT_EQ(m.thread(8).smt_index, 1u);
  EXPECT_EQ(m.sibling(0), 8u);
  EXPECT_FALSE(m.sibling(4).has_value());
  // Per-class calibration rides on the sim bundle.
  ASSERT_EQ(s.sim.class_work_rate.size(), 2u);
  EXPECT_DOUBLE_EQ(s.sim.class_work_rate[0], 1.0);
  EXPECT_DOUBLE_EQ(s.sim.class_work_rate[1], 0.55);
}

TEST(ScenarioAsymmetric, LopsidedNumaHasUnevenDomains) {
  const auto& s = ScenarioRegistry::instance().get("lopsided-numa");
  const topo::Machine m = s.machine.build();
  EXPECT_EQ(m.n_cores(), 16u);
  EXPECT_EQ(m.n_numa(), 2u);
  EXPECT_EQ(m.n_sockets(), 1u);
  EXPECT_EQ(m.cores_in_numa(0).size(), 12u);
  EXPECT_EQ(m.cores_in_numa(1).size(), 4u);
  EXPECT_EQ(m.max_smt_per_core(), 2u);
}

TEST(ScenarioAsymmetric, GroupStanzasParseAndBuild) {
  const ScenarioSpec s = parse_text(
      "name = hybrid\n"
      "noise.daemon_rate = 5\n"
      "[group big]\n"
      "sockets = 2\n"
      "numa = 2\n"
      "cores = 3\n"
      "smt = 2\n"
      "base_ghz = 2.2\n"
      "max_ghz = 3.2\n"
      "[group little]\n"
      "socket = 0\n"
      "cores = 4\n"
      "base_ghz = 1.5\n"
      "max_ghz = 2\n"
      "work_rate = 0.5\n",
      "test");
  ASSERT_EQ(s.machine.groups.size(), 2u);
  EXPECT_EQ(s.machine.groups[0].name, "big");
  EXPECT_FALSE(s.machine.groups[0].socket_pinned());
  EXPECT_TRUE(s.machine.groups[1].socket_pinned());
  EXPECT_EQ(s.sim.noise.daemon_rate, 5.0);
  const topo::Machine m = s.machine.build();
  // big: 2 sockets x 2 numa x 3 cores SMT-2; little: 4 cores on socket 0.
  EXPECT_EQ(m.n_cores(), 16u);
  EXPECT_EQ(m.n_threads(), 28u);
  EXPECT_EQ(m.n_sockets(), 2u);
  EXPECT_EQ(m.n_numa(), 5u);
  EXPECT_EQ(m.thread(12).socket, 0u);  // little cores land on socket 0
  ASSERT_EQ(s.sim.class_work_rate.size(), 2u);
  EXPECT_DOUBLE_EQ(s.sim.class_work_rate[1], 0.5);
}

TEST(ScenarioAsymmetric, V2RoundTripIsBitIdentical) {
  // parse -> fingerprint -> serialize -> parse: the fingerprint must be
  // stable and the re-serialization byte-identical (acceptance criterion).
  for (const char* name : {"biglittle", "lopsided-numa"}) {
    const auto& s = ScenarioRegistry::instance().get(name);
    const std::string text = s.to_text();
    const ScenarioSpec back = parse_text(text, "roundtrip");
    EXPECT_EQ(back.fingerprint(), s.fingerprint()) << name;
    EXPECT_EQ(back.to_text(), text) << name;
  }
}

TEST(ScenarioAsymmetric, FingerprintMovesWithGroupKnobs) {
  const auto& base = ScenarioRegistry::instance().get("biglittle");
  {
    ScenarioSpec s = base;
    s.machine.groups[1].cores += 1;
    EXPECT_NE(s.fingerprint(), base.fingerprint());
  }
  {
    ScenarioSpec s = base;
    s.machine.groups[1].work_rate = 0.7;
    s.sim.class_work_rate = s.machine.class_work_rates();
    EXPECT_NE(s.fingerprint(), base.fingerprint());
  }
  {
    ScenarioSpec s = base;
    s.machine.groups[0].name = "Prime";
    EXPECT_NE(s.fingerprint(), base.fingerprint());
  }
  {
    ScenarioSpec s = base;
    s.machine.groups[1].socket = NodeGroupSpec::kFreshSocket;
    s.machine.groups[1].sockets = 1;  // own socket instead of the pin
    EXPECT_NE(s.fingerprint(), base.fingerprint());
  }
}

TEST(ScenarioAsymmetric, BaseInheritanceInteractsWithGroups) {
  // base with groups + global overrides before stanzas: groups kept.
  {
    const ScenarioSpec s = parse_text(
        "name = tuned-bl\n"
        "base = biglittle\n"
        "noise.daemon_rate = 99\n",
        "test");
    ASSERT_EQ(s.machine.groups.size(), 2u);
    EXPECT_EQ(s.sim.noise.daemon_rate, 99.0);
    ASSERT_EQ(s.sim.class_work_rate.size(), 2u);
  }
  // base with groups + fresh stanzas: the file's groups replace the
  // preset's wholesale.
  {
    const ScenarioSpec s = parse_text(
        "name = re-bl\n"
        "base = biglittle\n"
        "[group solo]\n"
        "cores = 2\n",
        "test");
    ASSERT_EQ(s.machine.groups.size(), 1u);
    EXPECT_EQ(s.machine.groups[0].name, "solo");
    EXPECT_EQ(s.machine.build().n_cores(), 2u);
    ASSERT_EQ(s.sim.class_work_rate.size(), 1u);
  }
  // uniform base + stanzas: geometry becomes the groups, calibration stays.
  {
    const ScenarioSpec s = parse_text(
        "name = grouped-dardel\n"
        "base = dardel\n"
        "[group all]\n"
        "cores = 8\n"
        "smt = 2\n",
        "test");
    ASSERT_EQ(s.machine.groups.size(), 1u);
    EXPECT_EQ(s.machine.build().n_threads(), 16u);
  }
}

TEST(ScenarioAsymmetric, ParserRejectsMalformedGroupInput) {
  // machine.* geometry keys cannot be mixed with stanzas.
  EXPECT_THROW((void)parse_text("name = x\nmachine.smt = 2\n[group g]\n"
                                "cores = 2\n",
                                "t"),
               std::runtime_error);
  // Overriding a groups-based base with machine.* keys is equally wrong.
  EXPECT_THROW((void)parse_text("name = x\nbase = biglittle\n"
                                "machine.smt = 2\n",
                                "t"),
               std::runtime_error);
  // Global keys must precede stanzas — with the misplacement named, not
  // a misleading "unknown key in group".
  try {
    (void)parse_text("name = x\n[group g]\ncores = 2\n"
                     "noise.daemon_rate = 5\n",
                     "t");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("must precede every [group"),
              std::string::npos)
        << e.what();
  }
  // Unknown key inside a group.
  EXPECT_THROW((void)parse_text("name = x\n[group g]\nbogus = 2\n", "t"),
               std::runtime_error);
  // Duplicate group name / duplicate key within a group.
  EXPECT_THROW((void)parse_text("name = x\n[group g]\ncores = 2\n"
                                "[group g]\ncores = 2\n",
                                "t"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_text("name = x\n[group g]\ncores = 2\ncores = 3\n", "t"),
      std::runtime_error);
  // sockets and socket are mutually exclusive.
  EXPECT_THROW((void)parse_text("name = x\n[group a]\ncores = 1\n"
                                "[group b]\nsockets = 2\nsocket = 0\n",
                                "t"),
               std::runtime_error);
  // A socket pin must reference an earlier group's socket.
  EXPECT_THROW(
      (void)parse_text("name = x\n[group g]\ncores = 2\nsocket = 3\n", "t"),
      std::runtime_error);
  // Malformed stanza headers.
  EXPECT_THROW((void)parse_text("name = x\n[group ]\n", "t"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("name = x\n[cluster g]\n", "t"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("name = x\n[group g\n", "t"),
               std::runtime_error);
  // Zero-sized group dimensions and bad frequencies surface at parse time.
  EXPECT_THROW((void)parse_text("name = x\n[group g]\ncores = 0\n", "t"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("name = x\n[group g]\ncores = 1\n"
                                "base_ghz = 4\n",
                                "t"),
               std::runtime_error);  // max (3.0 default) < base
  EXPECT_THROW((void)parse_text("name = x\n[group g]\ncores = 1\n"
                                "work_rate = 0\n",
                                "t"),
               std::runtime_error);
}

TEST(ScenarioAsymmetric, GroupErrorsNameOriginAndLine) {
  try {
    (void)parse_text("name = x\n[group g]\ncores = 2\nwat = 1\n",
                     "conf/bl.scn");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("conf/bl.scn:4"), std::string::npos) << what;
    EXPECT_NE(what.find("'wat'"), std::string::npos) << what;
    EXPECT_NE(what.find("group 'g'"), std::string::npos) << what;
  }
}

// ------------------------------------------------------------ round-trips

TEST(ScenarioText, SerializeParseRoundTripsEveryPreset) {
  for (const auto& s : ScenarioRegistry::instance().all()) {
    const ScenarioSpec back = parse_text(s.to_text(), "roundtrip");
    EXPECT_EQ(back.name, s.name);
    EXPECT_EQ(back.display, s.display);
    EXPECT_EQ(back.fingerprint(), s.fingerprint()) << s.name;
  }
}

TEST(ScenarioText, FileLoadIsFingerprintStable) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "omnivar_scenario_test";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "box.scenario").string();
  ScenarioSpec s = ScenarioRegistry::instance().get("noisy-cloud");
  s.name = "my-box";
  s.display = "MyBox";
  s.sim.noise.daemon_rate = 123.456;
  {
    std::ofstream f(path, std::ios::binary);
    f << s.to_text();
  }
  const ScenarioSpec a = load_file(path);
  const ScenarioSpec b = load_file(path);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), s.fingerprint());
  EXPECT_EQ(a.sim.noise.daemon_rate, 123.456);  // bit-exact double
  EXPECT_EQ(resolve(path).fingerprint(), s.fingerprint());
  std::filesystem::remove_all(dir);
}

TEST(ScenarioText, BaseInheritanceOverridesSelectedFields) {
  const ScenarioSpec s = parse_text(
      "name = dippy-dardel\n"
      "base = dardel\n"
      "freq.episode_rate = 0.5\n",
      "test");
  const auto& dardel = ScenarioRegistry::instance().get("dardel");
  EXPECT_EQ(s.name, "dippy-dardel");
  EXPECT_EQ(s.display, "dippy-dardel");  // fresh name => fresh display
  EXPECT_EQ(s.machine.sockets, dardel.machine.sockets);
  EXPECT_EQ(s.sim.noise.daemon_rate, dardel.sim.noise.daemon_rate);
  EXPECT_EQ(s.sim.freq.episode_rate, 0.5);
  EXPECT_NE(s.fingerprint(), dardel.fingerprint());
}

TEST(ScenarioText, CommentsBlanksAndCrlfTolerated) {
  const ScenarioSpec s = parse_text(
      "# a comment\r\n"
      "\n"
      "name = tiny\r\n"
      "  machine.sockets = 1 \n"
      "machine.cores_per_numa = 2\n",
      "test");
  EXPECT_EQ(s.name, "tiny");
  EXPECT_EQ(s.display, "tiny");  // defaults to name
  EXPECT_EQ(s.machine.label, "tiny");
  EXPECT_EQ(s.machine.sockets, 1u);
  EXPECT_EQ(s.machine.cores_per_numa, 2u);
}

// ------------------------------------------------------------ error paths

TEST(ScenarioText, ParserRejectsMalformedInput) {
  // Unknown key.
  EXPECT_THROW((void)parse_text("name = x\nnoise.bogus = 1\n", "t"),
               std::runtime_error);
  // Malformed numeric values.
  EXPECT_THROW((void)parse_text("name = x\nnoise.daemon_rate = fast\n", "t"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("name = x\nmachine.smt = -1\n", "t"),
               std::runtime_error);
  // Missing '='.
  EXPECT_THROW((void)parse_text("name = x\njust words\n", "t"),
               std::runtime_error);
  // Duplicate assignment.
  EXPECT_THROW(
      (void)parse_text("name = x\nmem.domain_gbps = 1\nmem.domain_gbps = 2\n",
                       "t"),
      std::runtime_error);
  // Missing name.
  EXPECT_THROW((void)parse_text("machine.sockets = 1\n", "t"),
               std::runtime_error);
  // Unknown base preset.
  EXPECT_THROW((void)parse_text("name = x\nbase = nope\n", "t"),
               std::runtime_error);
  // base after an overridden field.
  EXPECT_THROW(
      (void)parse_text("name = x\nmachine.smt = 2\nbase = dardel\n", "t"),
      std::runtime_error);
  // Geometry errors surface at parse time.
  EXPECT_THROW((void)parse_text("name = x\nmachine.sockets = 0\n", "t"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("name = x\nmachine.base_ghz = 4\n", "t"),
               std::runtime_error);  // max (3.0 default) < base
}

TEST(ScenarioText, ParserRejectsOversizedGeometry) {
  // More than MachineSpec::kMaxHwThreads HW threads is rejected at load
  // time, before the machine is allocated: a socket count whose core
  // product wraps size_t (2^63 + 1 sockets x 2 NUMA domains would build a
  // 2-core machine), a v1 machine of 10^6 cores, a group of 100,000 cores
  // and two groups that only pass the ceiling together.
  const char* const cases[] = {
      "name = x\nbase = dardel\nmachine.sockets = 9223372036854775809\n"
      "machine.numa_per_socket = 2\nmachine.cores_per_numa = 1\n",
      "name = x\nmachine.cores_per_numa = 1000000\n",
      "name = x\n[group g]\ncores = 100000\n",
      "name = x\n[group a]\ncores = 40000\n[group b]\ncores = 40000\n",
  };
  for (const char* text : cases) {
    try {
      (void)parse_text(text, "conf/big.scn");
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("conf/big.scn"), std::string::npos) << what;
      EXPECT_NE(what.find("65536 HW threads"), std::string::npos) << what;
    }
  }
  // The ceiling itself still builds.
  MachineSpec at_ceiling;
  at_ceiling.cores_per_numa = MachineSpec::kMaxHwThreads;
  EXPECT_EQ(at_ceiling.build().n_threads(), MachineSpec::kMaxHwThreads);
  MachineSpec past = at_ceiling;
  past.smt = 2;
  EXPECT_THROW((void)past.build(), std::invalid_argument);
}

TEST(ScenarioText, ParserRejectsNegativeOrNonFiniteCosts) {
  // A negative barrier cost would drive every team clock below zero after
  // the first barrier; nan or inf would turn clocks into NaN, and an
  // infinite episode rate would generate episodes without end. The same
  // domain holds for every global numeric key, not only the costs, and
  // probabilities and frequency depths are narrower still: a depth of 0
  // stops a capped run's clock. Each violation is a diagnosed load error
  // naming the origin, the line, the key and its domain. Parse only:
  // nothing here may simulate an accepted value.
  const std::vector<std::string> non_finite = {"-1", "-1e-9", "nan",
                                               "-nan", "inf", "-inf"};
  struct Case {
    std::vector<std::string> keys;
    std::string domain;
    std::vector<std::string> also_bad;
  };
  const std::vector<Case> cases = {
      {{"costs.barrier_base", "costs.work_scale",
        "costs.oversub_stall_sigma", "freq.episode_rate",
        "freq_session.episode_rate", "noise.daemon_rate",
        "noise.kworker_mean", "mem.domain_gbps"},
       "finite and >= 0",
       {}},
      {{"noise.degrade_prob", "freq.run_cap_prob",
        "freq_session.run_cap_prob"},
       "finite and in [0, 1]",
       {"1.0000001", "2"}},
      {{"freq.depth_lo", "freq.depth_hi", "freq.run_cap_depth",
        "freq_session.depth_lo", "freq_session.depth_hi",
        "freq_session.run_cap_depth"},
       "finite and in (0, 1]",
       {"0", "-0", "1.5"}},
  };
  for (const Case& c : cases) {
    std::vector<std::string> bad = non_finite;
    bad.insert(bad.end(), c.also_bad.begin(), c.also_bad.end());
    for (const std::string& key : c.keys) {
      for (const std::string& v : bad) {
        const std::string text = "name = x\n" + key + " = " + v + "\n";
        try {
          (void)parse_text(text, "conf/cost.scn");
          ADD_FAILURE() << "accepted:\n" << text;
        } catch (const std::runtime_error& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("conf/cost.scn:2"), std::string::npos) << what;
          EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
          EXPECT_NE(what.find(c.domain), std::string::npos) << what;
        }
      }
    }
  }
  // Each domain's edges are valid: a zero cost, a certain event, a cap
  // that leaves the full clock, and a depth just above zero.
  const ScenarioSpec s = parse_text(
      "name = x\ncosts.barrier_base = 0\nnoise.degrade_prob = 1\n"
      "freq.run_cap_prob = 0\nfreq_session.run_cap_prob = 1\n"
      "freq.run_cap_depth = 1\nfreq_session.depth_lo = 1e-300\n",
      "conf/cost.scn");
  EXPECT_EQ(s.sim.costs.barrier_base, 0.0);
  EXPECT_EQ(s.sim.noise.degrade_prob, 1.0);
  EXPECT_EQ(s.sim.freq.run_cap_prob, 0.0);
  EXPECT_EQ(s.freq_session.run_cap_prob, 1.0);
  EXPECT_EQ(s.sim.freq.run_cap_depth, 1.0);
  EXPECT_GT(s.freq_session.depth_lo, 0.0);
}

TEST(ScenarioText, ErrorsNameOriginAndLine) {
  try {
    (void)parse_text("name = x\n\nnoise.bogus = 1\n", "conf/box.scn");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("conf/box.scn:3"), std::string::npos) << what;
    EXPECT_NE(what.find("noise.bogus"), std::string::npos) << what;
  }
}

TEST(ScenarioText, MissingFileThrows) {
  EXPECT_THROW((void)load_file("/nonexistent/omnivar.scenario"),
               std::runtime_error);
}

}  // namespace
}  // namespace omv::scenario
