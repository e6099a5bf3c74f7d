// Two-process cache race: fork/exec two real omnivar driver processes into
// ONE shared --out directory and assert the crash-safe concurrent-cache
// contract:
//   * the shared cache ends up with exactly the files a serial campaign
//     produces, byte-identical. A cell both processes miss is computed
//     twice; atomic tmp+rename commits of deterministic bytes mean the
//     last writer of an entry wins with the same bytes;
//   * no torn or extra files: every .key carries the schema stamp, and no
//     .tmp.* dropping or other leftover survives;
//   * both processes exit 0 and print byte-identical harness reports.
//
// The driver binary path arrives via OMNIVAR_BIN (set by the CMake test
// harness to $<TARGET_FILE:omnivar>); the suite skips when it is absent so
// the test library builds standalone.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

const char* omnivar_bin() { return std::getenv("OMNIVAR_BIN"); }

/// fork/execs `bin --only fig1 --out <out>` with stdout > `stdout_path` and
/// OMNIVAR_QUICK=1; the driver's default width is one job (serial).
/// Returns the child pid.
pid_t spawn_campaign(const std::string& bin, const std::string& out,
                     const std::string& stdout_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child. Redirect stdout to the capture file; stderr stays on the
  // test's stderr for diagnosis.
  if (!::freopen(stdout_path.c_str(), "w", stdout)) ::_exit(97);
  ::setenv("OMNIVAR_QUICK", "1", 1);
  ::execl(bin.c_str(), bin.c_str(), "--only", "fig1", "--out", out.c_str(),
          static_cast<char*>(nullptr));
  ::_exit(98);  // exec failed
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

/// Maps cache filename -> bytes.
std::map<std::string, std::string> cache_contents(const fs::path& out) {
  std::map<std::string, std::string> m;
  const fs::path cache = out / "cache";
  if (!fs::exists(cache)) return m;
  for (const auto& e : fs::directory_iterator(cache)) {
    m[e.path().filename().string()] = slurp(e.path());
  }
  return m;
}

class ConcurrentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (omnivar_bin() == nullptr || !fs::exists(omnivar_bin())) {
      GTEST_SKIP() << "OMNIVAR_BIN not set / not built; skipping the "
                      "two-process race test";
    }
    dir_ = fs::temp_directory_path() /
           ("omnivar_race_" +
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

TEST_F(ConcurrentCacheTest, TwoRacingCampaignsMatchASerialCampaign) {
  const std::string bin = omnivar_bin();

  // Reference: one serial campaign into its own directory.
  const fs::path serial_out = dir_ / "serial";
  const pid_t ref =
      spawn_campaign(bin, serial_out.string(), (dir_ / "serial.log").string());
  ASSERT_EQ(wait_exit_code(ref), 0);
  const auto expected = cache_contents(serial_out);
  ASSERT_FALSE(expected.empty());

  // Race: two campaigns into ONE shared directory, started back-to-back.
  const fs::path shared_out = dir_ / "shared";
  const pid_t a =
      spawn_campaign(bin, shared_out.string(), (dir_ / "a.log").string());
  const pid_t b =
      spawn_campaign(bin, shared_out.string(), (dir_ / "b.log").string());
  EXPECT_EQ(wait_exit_code(a), 0);
  EXPECT_EQ(wait_exit_code(b), 0);

  // The shared cache is the serial campaign's cache as a whole: the same
  // file names, so no missing entry and no extra file of any kind (a
  // surviving commit temp included), each with the same bytes.
  const auto got = cache_contents(shared_out);
  const auto names = [](const std::map<std::string, std::string>& m) {
    std::vector<std::string> v;
    for (const auto& [name, bytes] : m) v.push_back(name);
    return v;
  };
  EXPECT_EQ(names(got), names(expected));
  for (const auto& [name, bytes] : expected) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << "missing cache entry " << name;
    EXPECT_EQ(it->second, bytes) << "cache entry differs: " << name;
  }

  // Every .key opens with the cache schema stamp (no torn markers).
  for (const auto& [name, bytes] : got) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".key") == 0) {
      EXPECT_EQ(bytes.rfind("omnivar-cache-", 0), 0u) << name;
    }
  }

  // Both racing processes printed byte-identical science reports, equal to
  // the serial run's (stdout carries only harness output; driver chrome
  // goes to stderr).
  const std::string serial_log = slurp(dir_ / "serial.log");
  EXPECT_FALSE(serial_log.empty());
  EXPECT_EQ(slurp(dir_ / "a.log"), serial_log);
  EXPECT_EQ(slurp(dir_ / "b.log"), serial_log);

  // A third, warm campaign over the shared dir serves everything from
  // cache and stays byte-identical.
  const pid_t warm =
      spawn_campaign(bin, shared_out.string(), (dir_ / "warm.log").string());
  ASSERT_EQ(wait_exit_code(warm), 0);
  EXPECT_EQ(slurp(dir_ / "warm.log"), serial_log);
}

TEST_F(ConcurrentCacheTest, FaultInjectedCampaignExitsQuarantinedThenHeals) {
  const std::string bin = omnivar_bin();
  const fs::path out = dir_ / "faulted";

  // Arm a persistent cell fault for the first fig1 cell. The driver must
  // quarantine it (exit 4), keep the campaign alive, and print the FAILED
  // line on stdout.
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (!::freopen((dir_ / "faulted.log").c_str(), "w", stdout)) ::_exit(97);
    ::setenv("OMNIVAR_QUICK", "1", 1);
    ::execl(bin.c_str(), bin.c_str(), "--only", "fig1", "--out",
            out.c_str(), "--fault-spec", "cell_throw@1",
            static_cast<char*>(nullptr));
    ::_exit(98);
  }
  ASSERT_EQ(wait_exit_code(pid), 4);  // kExitQuarantined
  const std::string log = slurp(dir_ / "faulted.log");
  EXPECT_NE(log.find("[omnivar] FAILED cell"), std::string::npos);

  // campaign.json records the failure block with its taxonomy.
  const std::string campaign = slurp(out / "campaign.json");
  EXPECT_NE(campaign.find("\"schema\": \"omnivar-campaign-v4\""),
            std::string::npos);
  EXPECT_NE(campaign.find("\"failures\""), std::string::npos);
  EXPECT_NE(campaign.find("\"taxonomy\": \"exception\""),
            std::string::npos);
  EXPECT_NE(campaign.find("\"exit_code\": 4"), std::string::npos);

  // Un-faulted re-run over the same directory heals: exit 0, and the
  // quarantined cell is simply computed this time.
  const pid_t heal =
      spawn_campaign(bin, out.string(), (dir_ / "healed.log").string());
  ASSERT_EQ(wait_exit_code(heal), 0);
  const std::string healed = slurp(dir_ / "healed.log");
  EXPECT_EQ(healed.find("[omnivar] FAILED cell"), std::string::npos);
}

}  // namespace
