// Unit tests for topo/topology: the machine model and platform presets.

#include "topo/topology.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace omv::topo {
namespace {

TEST(Machine, DardelGeometry) {
  const auto m = Machine::dardel();
  EXPECT_EQ(m.name(), "dardel");
  EXPECT_EQ(m.n_threads(), 256u);
  EXPECT_EQ(m.n_cores(), 128u);
  EXPECT_EQ(m.n_numa(), 8u);
  EXPECT_EQ(m.n_sockets(), 2u);
  EXPECT_EQ(m.max_smt_per_core(), 2u);
  EXPECT_DOUBLE_EQ(m.base_ghz(), 2.25);
  EXPECT_DOUBLE_EQ(m.max_ghz(), 3.4);
}

TEST(Machine, VeraGeometry) {
  const auto m = Machine::vera();
  EXPECT_EQ(m.n_threads(), 32u);
  EXPECT_EQ(m.n_cores(), 32u);
  EXPECT_EQ(m.n_numa(), 2u);
  EXPECT_EQ(m.n_sockets(), 2u);
  EXPECT_EQ(m.max_smt_per_core(), 1u);
  EXPECT_DOUBLE_EQ(m.max_ghz(), 3.7);
}

TEST(Machine, DardelLinuxSmtNumbering) {
  // Linux convention: os_ids 0..127 are the first siblings, 128..255 the
  // second siblings of cores 0..127.
  const auto m = Machine::dardel();
  EXPECT_EQ(m.thread(0).core, 0u);
  EXPECT_EQ(m.thread(0).smt_index, 0u);
  EXPECT_EQ(m.thread(128).core, 0u);
  EXPECT_EQ(m.thread(128).smt_index, 1u);
  EXPECT_EQ(m.thread(127).core, 127u);
  EXPECT_EQ(m.thread(255).core, 127u);
}

TEST(Machine, DardelNumaLayout) {
  const auto m = Machine::dardel();
  // 16 cores per NUMA domain, 4 domains per socket.
  EXPECT_EQ(m.thread(0).numa, 0u);
  EXPECT_EQ(m.thread(15).numa, 0u);
  EXPECT_EQ(m.thread(16).numa, 1u);
  EXPECT_EQ(m.thread(63).numa, 3u);
  EXPECT_EQ(m.thread(64).numa, 4u);
  EXPECT_EQ(m.thread(64).socket, 1u);
  EXPECT_EQ(m.thread(63).socket, 0u);
}

/// sibling()'s contract spelled out as a scan: the first other HW thread
/// of the same core, in os_id order.
std::optional<std::size_t> scanned_sibling(const Machine& m,
                                           std::size_t os_id) {
  for (const auto& t : m.threads()) {
    if (t.core == m.thread(os_id).core && t.os_id != os_id) return t.os_id;
  }
  return std::nullopt;
}

void expect_sibling_table_matches_scan(const Machine& m) {
  for (std::size_t h = 0; h < m.n_threads(); ++h) {
    EXPECT_EQ(m.sibling(h), scanned_sibling(m, h))
        << m.name() << " os_id " << h;
  }
  EXPECT_THROW((void)m.sibling(m.n_threads()), std::out_of_range)
      << m.name();
}

TEST(Machine, SiblingLookup) {
  const auto m = Machine::dardel();
  EXPECT_EQ(m.sibling(0), 128u);
  EXPECT_EQ(m.sibling(128), 0u);
  const auto v = Machine::vera();
  EXPECT_FALSE(v.sibling(0).has_value());

  expect_sibling_table_matches_scan(m);
  expect_sibling_table_matches_scan(v);
  // SMT-4: every non-first HW thread of a core maps to the first, the
  // first to the second.
  const auto smt4 = Machine::uniform("smt4", 1, 2, 3, 4);
  EXPECT_EQ(smt4.sibling(0), 6u);
  EXPECT_EQ(smt4.sibling(18), 0u);
  expect_sibling_table_matches_scan(smt4);
  expect_sibling_table_matches_scan(
      scenario::resolve("biglittle").machine.build());
  // v2 node groups: SMT on for four cores and off for three on one socket.
  const topo::Machine partial =
      scenario::parse_text(
          "name = partial-smt\n"
          "[group smt-on]\n"
          "cores = 4\n"
          "smt = 2\n"
          "[group smt-off]\n"
          "socket = 0\n"
          "cores = 3\n"
          "smt = 1\n",
          "test")
          .machine.build();
  ASSERT_EQ(partial.n_threads(), 11u);
  EXPECT_EQ(partial.sibling(0), 7u);
  EXPECT_FALSE(partial.sibling(5).has_value());
  expect_sibling_table_matches_scan(partial);
}

TEST(Machine, CoreAndNumaSets) {
  const auto m = Machine::dardel();
  EXPECT_EQ(m.core_threads(0).to_string(), "0,128");
  EXPECT_EQ(m.numa_threads(0).count(), 32u);  // 16 cores x 2 HW threads
  EXPECT_EQ(m.socket_threads(0).count(), 128u);
  EXPECT_EQ(m.all_threads().count(), 256u);
}

TEST(Machine, PrimaryThreads) {
  const auto m = Machine::dardel();
  const auto p = m.primary_threads();
  EXPECT_EQ(p.count(), 128u);
  EXPECT_TRUE(p.contains(0));
  EXPECT_FALSE(p.contains(128));
}

TEST(Machine, UniformValidation) {
  EXPECT_THROW(Machine::uniform("x", 0, 1, 1, 1), std::invalid_argument);
  EXPECT_THROW(Machine::uniform("x", 1, 1, 1, 0), std::invalid_argument);
}

TEST(Machine, ConstructorValidatesDenseIds) {
  std::vector<HwThread> threads(2);
  threads[0].os_id = 0;
  threads[1].os_id = 5;  // gap
  EXPECT_THROW(Machine("bad", std::move(threads)), std::invalid_argument);
}

// ------------------------------------------------- asymmetric machines

/// 2 P-cores (SMT-2) + 2 E-cores (SMT-1), one socket, one NUMA domain per
/// cluster. os ids follow the Linux convention: primaries 0..3, then the
/// P-cores' second siblings 4..5.
Machine mixed_machine() {
  std::vector<CoreClass> classes{{"P", 2.5, 3.8}, {"E", 1.8, 2.6}};
  std::vector<HwThread> t(6);
  for (std::size_t i = 0; i < 6; ++i) t[i].os_id = i;
  t[0] = {0, 0, 0, 0, 0, 0};
  t[1] = {1, 1, 0, 0, 0, 0};
  t[2] = {2, 2, 1, 0, 0, 1};
  t[3] = {3, 3, 1, 0, 0, 1};
  t[4] = {4, 0, 0, 0, 1, 0};
  t[5] = {5, 1, 0, 0, 1, 0};
  return Machine("mixed", std::move(t), std::move(classes));
}

TEST(Machine, MixedSmtPerCoreQueries) {
  const Machine m = mixed_machine();
  EXPECT_EQ(m.n_cores(), 4u);
  EXPECT_EQ(m.n_threads(), 6u);
  EXPECT_EQ(m.n_numa(), 2u);
  EXPECT_EQ(m.n_sockets(), 1u);
  // The retired smt_per_core() floor average would have said 6/4 = 1 here
  // — "no SMT" on a machine with two SMT-2 cores.
  EXPECT_EQ(m.max_smt_per_core(), 2u);
  EXPECT_EQ(m.smt_of_core(0), 2u);
  EXPECT_EQ(m.smt_of_core(1), 2u);
  EXPECT_EQ(m.smt_of_core(2), 1u);
  EXPECT_EQ(m.smt_of_core(3), 1u);
  EXPECT_THROW((void)m.smt_of_core(4), std::out_of_range);
  EXPECT_EQ(m.cores_with_smt(2), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(m.cores_with_smt(1), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(m.cores_in_numa(0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(m.cores_in_numa(1), (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(m.sibling(0), 4u);
  EXPECT_FALSE(m.sibling(2).has_value());
  expect_sibling_table_matches_scan(m);
}

TEST(Machine, MixedCoreClassQueries) {
  const Machine m = mixed_machine();
  ASSERT_EQ(m.classes().size(), 2u);
  EXPECT_EQ(m.classes()[0].name, "P");
  EXPECT_EQ(m.classes()[1].name, "E");
  EXPECT_EQ(m.core_class(0), 0u);
  EXPECT_EQ(m.core_class(3), 1u);
  EXPECT_DOUBLE_EQ(m.core_max_ghz(0), 3.8);
  EXPECT_DOUBLE_EQ(m.core_max_ghz(2), 2.6);
  EXPECT_DOUBLE_EQ(m.classes()[m.core_class(2)].base_ghz, 1.8);
  // Machine-wide range spans the classes: lowest base, highest boost.
  EXPECT_DOUBLE_EQ(m.base_ghz(), 1.8);
  EXPECT_DOUBLE_EQ(m.max_ghz(), 3.8);
  // Homogeneous machines have exactly one implicit class.
  EXPECT_EQ(Machine::vera().classes().size(), 1u);
  EXPECT_EQ(Machine::vera().core_class(5), 0u);
}

TEST(Machine, RejectsCoreSpanningNumaDomains) {
  std::vector<HwThread> t(2);
  t[0] = {0, 0, 0, 0, 0, 0};
  t[1] = {1, 0, 1, 0, 1, 0};  // same core, different NUMA domain
  try {
    Machine("bad", std::move(t));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("core 0 spans NUMA domains 0 and 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(Machine, RejectsNumaDomainSpanningSockets) {
  std::vector<HwThread> t(2);
  t[0] = {0, 0, 0, 0, 0, 0};
  t[1] = {1, 1, 0, 1, 0, 0};  // same NUMA domain, different socket
  try {
    Machine("bad", std::move(t));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(
        std::string(e.what()).find("NUMA domain 0 spans sockets 0 and 1"),
        std::string::npos)
        << e.what();
  }
}

TEST(Machine, RejectsDuplicateAndGappedSmtIndex) {
  {
    std::vector<HwThread> t(2);
    t[0] = {0, 0, 0, 0, 0, 0};
    t[1] = {1, 0, 0, 0, 0, 0};  // duplicate smt_index 0 on core 0
    try {
      Machine("bad", std::move(t));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate smt_index 0 on core 0"),
                std::string::npos)
          << e.what();
    }
  }
  {
    std::vector<HwThread> t(3);
    t[0] = {0, 0, 0, 0, 0, 0};
    t[1] = {1, 0, 0, 0, 2, 0};  // smt_index jumps 0 -> 2 (1 missing)
    t[2] = {2, 1, 0, 0, 0, 0};
    try {
      Machine("bad", std::move(t));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "smt_index values on core 0 are not dense"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Machine, RejectsGappedCoreNumaSocketAndClassIds) {
  {
    std::vector<HwThread> t(2);
    t[0] = {0, 0, 0, 0, 0, 0};
    t[1] = {1, 2, 0, 0, 0, 0};  // core 1 missing
    EXPECT_THROW(Machine("bad", std::move(t)), std::invalid_argument);
  }
  {
    std::vector<HwThread> t(2);
    t[0] = {0, 0, 0, 0, 0, 0};
    t[1] = {1, 1, 2, 0, 0, 0};  // NUMA domain 1 missing
    EXPECT_THROW(Machine("bad", std::move(t)), std::invalid_argument);
  }
  {
    std::vector<HwThread> t(2);
    t[0] = {0, 0, 0, 0, 0, 0};
    t[1] = {1, 1, 1, 2, 0, 0};  // socket 1 missing (and numa 1 in socket 2)
    EXPECT_THROW(Machine("bad", std::move(t)), std::invalid_argument);
  }
  {
    std::vector<HwThread> t(1);
    t[0] = {0, 0, 0, 0, 0, 3};  // class 3 of 1 defined
    EXPECT_THROW(Machine("bad", std::move(t)), std::invalid_argument);
  }
}

TEST(Machine, RejectsWildIdsWithoutAllocatingForThem) {
  // Ids far outside the dense range must produce the validation error,
  // not a SIZE_MAX-wrapped resize (UB) or an O(max_id) table allocation.
  {
    std::vector<HwThread> t(2);
    t[1] = {1, 0, 0, 0, static_cast<std::size_t>(-1), 0};  // smt_index MAX
    EXPECT_THROW(Machine("bad", std::move(t)), std::invalid_argument);
  }
  {
    std::vector<HwThread> t(2);
    t[1] = {1, std::size_t{1} << 40, 0, 0, 1, 0};  // ~2^40 core id
    EXPECT_THROW(Machine("bad", std::move(t)), std::invalid_argument);
  }
}

TEST(Machine, RejectsCoreMixingClassesAndBadClassFrequencies) {
  {
    std::vector<CoreClass> classes{{"P", 2.0, 3.0}, {"E", 1.5, 2.0}};
    std::vector<HwThread> t(2);
    t[0] = {0, 0, 0, 0, 0, 0};
    t[1] = {1, 0, 0, 0, 1, 1};  // core 0 thread in class 1
    try {
      Machine("bad", std::move(t), std::move(classes));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("core 0 mixes core classes"),
                std::string::npos)
          << e.what();
    }
  }
  {
    std::vector<CoreClass> classes{{"P", 3.0, 2.0}};  // max < base
    std::vector<HwThread> t(1);
    EXPECT_THROW(Machine("bad", std::move(t), std::move(classes)),
                 std::invalid_argument);
  }
  {
    std::vector<HwThread> t(1);
    EXPECT_THROW(Machine("bad", std::move(t), std::vector<CoreClass>{}),
                 std::invalid_argument);
  }
  {
    // Every defined class must own at least one core.
    std::vector<CoreClass> classes{{"P", 2.0, 3.0}, {"E", 1.5, 2.5}};
    std::vector<HwThread> t(1);  // one thread, cls 0 — class 1 unused
    try {
      Machine("bad", std::move(t), std::move(classes));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("class 1 ('E') has no cores"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Machine, ConstructorValidatesFrequencies) {
  std::vector<HwThread> threads(1);
  EXPECT_THROW(Machine("bad", threads, 3.0, 2.0), std::invalid_argument);
  EXPECT_THROW(Machine("bad", threads, -1.0, 2.0), std::invalid_argument);
}

TEST(Machine, EmptyThrows) {
  EXPECT_THROW(Machine("bad", {}), std::invalid_argument);
}

TEST(Machine, CustomUniform) {
  const auto m = Machine::uniform("mini", 1, 2, 4, 2, 1.0, 2.0);
  EXPECT_EQ(m.n_cores(), 8u);
  EXPECT_EQ(m.n_threads(), 16u);
  EXPECT_EQ(m.n_numa(), 2u);
  EXPECT_EQ(m.n_sockets(), 1u);
}

}  // namespace
}  // namespace omv::topo
