// Unit tests for topo/proc_bind: the close/spread/primary mapping.

#include "topo/proc_bind.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace omv::topo {
namespace {

PlaceList simple_places(std::size_t n) {
  PlaceList p;
  for (std::size_t i = 0; i < n; ++i) p.push_back(CpuSet::single(i));
  return p;
}

TEST(AssignPlaces, NoneReturnsEmpty) {
  EXPECT_TRUE(assign_places(4, simple_places(8), ProcBind::none).empty());
}

TEST(AssignPlaces, CloseFewerThreadsThanPlaces) {
  const auto map = assign_places(4, simple_places(8), ProcBind::close);
  EXPECT_EQ(map, (ThreadPlaceMap{0, 1, 2, 3}));
}

TEST(AssignPlaces, CloseWrapsFromPrimary) {
  const auto map = assign_places(4, simple_places(8), ProcBind::close, 6);
  EXPECT_EQ(map, (ThreadPlaceMap{6, 7, 0, 1}));
}

TEST(AssignPlaces, CloseMoreThreadsThanPlaces) {
  // 7 threads on 3 places: 3,2,2 consecutive.
  const auto map = assign_places(7, simple_places(3), ProcBind::close);
  EXPECT_EQ(map, (ThreadPlaceMap{0, 0, 0, 1, 1, 2, 2}));
}

TEST(AssignPlaces, CloseExactFit) {
  const auto map = assign_places(3, simple_places(3), ProcBind::close);
  EXPECT_EQ(map, (ThreadPlaceMap{0, 1, 2}));
}

TEST(AssignPlaces, SpreadSubpartitions) {
  // 2 threads over 8 places: subpartitions of 4, first place of each.
  const auto map = assign_places(2, simple_places(8), ProcBind::spread);
  EXPECT_EQ(map, (ThreadPlaceMap{0, 4}));
}

TEST(AssignPlaces, SpreadUnevenSubpartitions) {
  // 3 threads over 8 places: partitions 3,3,2 -> first places 0,3,6.
  const auto map = assign_places(3, simple_places(8), ProcBind::spread);
  EXPECT_EQ(map, (ThreadPlaceMap{0, 3, 6}));
}

TEST(AssignPlaces, SpreadOversubscribedFallsBackToClose) {
  const auto spread = assign_places(7, simple_places(3), ProcBind::spread);
  const auto close = assign_places(7, simple_places(3), ProcBind::close);
  EXPECT_EQ(spread, close);
}

TEST(AssignPlaces, PrimaryAllOnPrimaryPlace) {
  const auto map = assign_places(5, simple_places(8), ProcBind::primary, 3);
  for (auto p : map) EXPECT_EQ(p, 3u);
}

TEST(AssignPlaces, ValidatesInputs) {
  EXPECT_THROW(static_cast<void>(assign_places(2, {}, ProcBind::close)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(assign_places(2, simple_places(4), ProcBind::close, 9)),
               std::invalid_argument);
}

TEST(ThreadAffinities, NoneGivesAllThreads) {
  const auto m = Machine::vera();
  const auto places = parse_places("threads", m);
  const auto aff = thread_affinities(4, places, ProcBind::none, m);
  ASSERT_EQ(aff.size(), 4u);
  for (const auto& a : aff) EXPECT_EQ(a.count(), 32u);
}

TEST(ThreadAffinities, CloseGivesSingletonSets) {
  const auto m = Machine::vera();
  const auto places = parse_places("threads", m);
  const auto aff = thread_affinities(4, places, ProcBind::close, m);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(aff[i].to_string(), std::to_string(i));
  }
}

TEST(ThreadAffinities, CoresPlacesKeepSiblingsTogether) {
  const auto m = Machine::dardel();
  const auto places = parse_places("cores", m);
  const auto aff = thread_affinities(2, places, ProcBind::close, m);
  EXPECT_EQ(aff[0].to_string(), "0,128");
  EXPECT_EQ(aff[1].to_string(), "1,129");
}

// Property sweep over the close policy: every thread gets a valid place and
// consecutive threads are never more than one place apart (contiguity).
struct CloseCase {
  std::size_t threads;
  std::size_t places;
};

class CloseProperty : public ::testing::TestWithParam<CloseCase> {};

TEST_P(CloseProperty, ValidAndContiguous) {
  const auto [t, p] = GetParam();
  const auto map = assign_places(t, simple_places(p), ProcBind::close);
  ASSERT_EQ(map.size(), t);
  for (auto pl : map) EXPECT_LT(pl, p);
  for (std::size_t i = 1; i < map.size(); ++i) {
    const auto step = (map[i] + p - map[i - 1]) % p;
    EXPECT_LE(step, 1u) << "thread " << i;
  }
}

TEST_P(CloseProperty, LoadBalanced) {
  const auto [t, p] = GetParam();
  const auto map = assign_places(t, simple_places(p), ProcBind::close);
  std::vector<std::size_t> load(p, 0);
  for (auto pl : map) ++load[pl];
  const auto [mn, mx] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*mx - *mn, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CloseProperty,
    ::testing::Values(CloseCase{1, 1}, CloseCase{4, 8}, CloseCase{8, 8},
                      CloseCase{9, 8}, CloseCase{16, 8}, CloseCase{17, 8},
                      CloseCase{254, 256}, CloseCase{256, 256},
                      CloseCase{30, 32}, CloseCase{128, 128}));

}  // namespace
}  // namespace omv::topo
