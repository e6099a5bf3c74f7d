// Unit tests for the crash-safe file helpers: atomic tmp+rename commits,
// fault-injected torn/failed writes and the sweep of dead writers' temps.

#include "core/atomic_file.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/faultinject.hpp"

namespace omv::core {
namespace {

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("omnivar_atomic_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    fault::set_active_spec("");
  }
  void TearDown() override {
    fault::set_active_spec("");
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

TEST_F(AtomicFileTest, WriteReadRoundTripAndOverwrite) {
  const std::string path = dir_ + "/a.txt";
  atomic_write_file(path, "first");
  std::string got;
  ASSERT_TRUE(read_file(path, got));
  EXPECT_EQ(got, "first");

  atomic_write_file(path, "second, longer payload");
  ASSERT_TRUE(read_file(path, got));
  EXPECT_EQ(got, "second, longer payload");

  // No temp droppings survive a successful commit.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(AtomicFileTest, ReadAbsentFileReturnsFalse) {
  std::string got = "untouched";
  EXPECT_FALSE(read_file(dir_ + "/missing", got));
  EXPECT_EQ(got, "untouched");
}

TEST_F(AtomicFileTest, WriteIntoMissingDirectoryThrows) {
  EXPECT_THROW(atomic_write_file(dir_ + "/nope/deep/a.txt", "x"),
               std::runtime_error);
}

TEST_F(AtomicFileTest, InjectedEnospcWritesNothing) {
  fault::set_active_spec("enospc:cache@1");
  const std::string path = dir_ + "/entry.csv";
  try {
    atomic_write_file(path, "payload", "cache");
    FAIL() << "expected InjectedFault";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.taxonomy(), "io");
  }
  // Fails before writing anything: no final file, no temp file.
  EXPECT_TRUE(std::filesystem::is_empty(dir_));

  // The occurrence is spent: the retry commits cleanly.
  atomic_write_file(path, "payload", "cache");
  std::string got;
  ASSERT_TRUE(read_file(path, got));
  EXPECT_EQ(got, "payload");
}

TEST_F(AtomicFileTest, InjectedTornWriteLeavesHalfThePayload) {
  fault::set_active_spec("torn_write:cache@1");
  const std::string path = dir_ + "/entry.csv";
  EXPECT_THROW(atomic_write_file(path, "0123456789", "cache"),
               fault::InjectedFault);
  // The torn file a crashed non-atomic writer would leave: the first half,
  // AT the final path (this is what readers must treat as a miss).
  std::string got;
  ASSERT_TRUE(read_file(path, got));
  EXPECT_EQ(got, "01234");

  // A clean retry replaces the torn file atomically.
  atomic_write_file(path, "0123456789", "cache");
  ASSERT_TRUE(read_file(path, got));
  EXPECT_EQ(got, "0123456789");
}

TEST_F(AtomicFileTest, UnnamedSitesAreExemptFromInjection) {
  fault::set_active_spec("enospc@1");
  const std::string path = dir_ + "/plain.txt";
  atomic_write_file(path, "ok");  // no site: never matches
  std::string got;
  ASSERT_TRUE(read_file(path, got));
  EXPECT_EQ(got, "ok");
}

TEST_F(AtomicFileTest, OnlyTempsOfDeadWritersAreRemoved) {
  // A reaped child's pid names no live process: the writer a SIGKILL
  // leaves behind.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  const std::string dead = std::to_string(child);
  const std::string self = std::to_string(::getpid());

  const std::string names[] = {
      "dead.csv.tmp." + dead,            // removed
      "own.csv.tmp." + self,             // this process may rename it
      "word.csv.tmp.abc",                // no pid
      "trailing.csv.tmp." + dead + "x",  // not only digits
      "near.csv.tmpx." + dead,           // not the temp separator
  };
  for (const auto& n : names) atomic_write_file(dir_ + "/" + n, "x");

  EXPECT_EQ(remove_dead_writer_temps(dir_), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/" + names[0]));
  for (std::size_t i = 1; i < std::size(names); ++i) {
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/" + names[i])) << names[i];
  }
  EXPECT_EQ(remove_dead_writer_temps(dir_ + "/absent"), 0u);
}

}  // namespace
}  // namespace omv::core
