// Unit tests for sim/memory: bandwidth sharing and NUMA penalties.

#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace omv::sim {
namespace {

class MemoryModelTest : public ::testing::Test {
 protected:
  topo::Machine m_ = topo::Machine::vera();  // 2 sockets, 1 domain each
  MemConfig cfg_ = MemConfig::vera();
  MemoryModel model_{m_, cfg_};
};

TEST_F(MemoryModelTest, SingleThreadLimitedByCore) {
  // One thread cannot exceed the per-core ceiling.
  EXPECT_DOUBLE_EQ(model_.thread_gbps(0, 0, 1), cfg_.per_core_gbps);
}

TEST_F(MemoryModelTest, ManySharersLimitedByDomain) {
  const double bw = model_.thread_gbps(0, 0, 16);
  EXPECT_DOUBLE_EQ(bw, cfg_.domain_gbps / 16.0);
}

TEST_F(MemoryModelTest, RemoteSocketPenalty) {
  // Thread on socket 1 (hw 16) accessing domain 0 pays the socket factor.
  const double local = model_.thread_gbps(0, 0, 4);
  const double remote = model_.thread_gbps(16, 0, 4);
  EXPECT_NEAR(remote, local * cfg_.remote_socket_factor, 1e-12);
}

TEST_F(MemoryModelTest, RemoteNumaSameSocketOnDardel) {
  topo::Machine d = topo::Machine::dardel();
  MemConfig cfg = MemConfig::dardel();
  MemoryModel model(d, cfg);
  // HW 0 is numa 0; numa 1 is the adjacent domain on the same socket.
  const double local = model.thread_gbps(0, 0, 1);
  const double near_remote = model.thread_gbps(0, 1, 1);
  const double far_remote = model.thread_gbps(0, 4, 1);  // other socket
  EXPECT_LT(near_remote, local);
  EXPECT_LT(far_remote, near_remote);
}

TEST_F(MemoryModelTest, DataDomainOutOfRangeThrows) {
  // Vera has two domains; a third names no socket, so it cannot be priced
  // as local, same-socket or remote.
  EXPECT_THROW((void)model_.thread_gbps(0, 2, 1), std::out_of_range);
  EXPECT_THROW((void)model_.thread_gbps(16, 99, 1), std::out_of_range);
}

TEST_F(MemoryModelTest, PhaseTimesBasic) {
  const std::vector<std::size_t> hw{0, 1};
  const std::vector<std::size_t> dom{0, 0};
  const std::vector<double> jitter{1.0, 1.0};
  const double bytes = 1e9;
  const auto t = model_.phase_times(hw, dom, bytes, jitter);
  ASSERT_EQ(t.size(), 2u);
  // Two sharers of domain 0, per-core cap 14 < 60/2=30: core-limited.
  EXPECT_NEAR(t[0], bytes / (cfg_.per_core_gbps * 1e9), 1e-12);
  EXPECT_DOUBLE_EQ(t[0], t[1]);
}

TEST_F(MemoryModelTest, PhaseTimesJitterScales) {
  const std::vector<std::size_t> hw{0};
  const std::vector<std::size_t> dom{0};
  const auto fast = model_.phase_times(hw, dom, 1e9, {2.0});
  const auto slow = model_.phase_times(hw, dom, 1e9, {0.5});
  EXPECT_NEAR(slow[0] / fast[0], 4.0, 1e-9);
}

TEST_F(MemoryModelTest, PhaseTimesValidatesSizes) {
  EXPECT_THROW(static_cast<void>(model_.phase_times({0, 1}, {0}, 1.0, {1.0, 1.0})),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(model_.phase_times({0}, {0}, 1.0, {})),
               std::invalid_argument);
}

TEST_F(MemoryModelTest, MoreThreadsNeverSlowerTotal) {
  // Fixed total bytes split across more threads never increases the
  // per-thread time (the Fig. 2 scaling property).
  const double total = 8e9;
  double prev = 1e300;
  for (std::size_t t = 1; t <= 16; t *= 2) {
    std::vector<std::size_t> hw;
    std::vector<std::size_t> dom(t, 0);
    std::vector<double> jit(t, 1.0);
    for (std::size_t i = 0; i < t; ++i) hw.push_back(i);
    const auto times =
        model_.phase_times(hw, dom, total / static_cast<double>(t), jit);
    const double worst = *std::max_element(times.begin(), times.end());
    EXPECT_LE(worst, prev + 1e-12) << t;
    prev = worst;
  }
}

}  // namespace
}  // namespace omv::sim
