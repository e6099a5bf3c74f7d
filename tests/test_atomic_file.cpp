// Unit tests for the crash-safe file helpers: atomic tmp+rename commits,
// fault-injected torn/failed writes, and the advisory cache lease.

#include "core/atomic_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>

#include "core/faultinject.hpp"
#include "core/lockfile.hpp"

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
    fault::clear_active_plan();
  }
  void TearDown() override {
    fault::clear_active_plan();
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

TEST_F(AtomicFileTest, RemoveIfExists) {
  const std::string path = dir_ + "/r.txt";
  EXPECT_FALSE(remove_file_if_exists(path));
  atomic_write_file(path, "x");
  EXPECT_TRUE(remove_file_if_exists(path));
  EXPECT_FALSE(std::filesystem::exists(path));
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

// ------------------------------------------------------------------ lease

class FileLeaseTest : public AtomicFileTest {};

TEST_F(FileLeaseTest, AcquireReleaseReacquire) {
  const std::string path = dir_ + "/cell.lock";
  auto l1 = FileLease::acquire(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(l1.has_value());
  EXPECT_TRUE(std::filesystem::exists(path));

  l1->release();
  EXPECT_FALSE(std::filesystem::exists(path));

  auto l2 = FileLease::acquire(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(l2.has_value());  // released leases can be retaken
}

TEST_F(FileLeaseTest, ReleaseOnDestruction) {
  const std::string path = dir_ + "/cell.lock";
  {
    auto l = FileLease::acquire(path, std::chrono::milliseconds(0));
    ASSERT_TRUE(l.has_value());
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(FileLeaseTest, SecondAcquireTimesOutWhileHeld) {
  const std::string path = dir_ + "/cell.lock";
  auto held = FileLease::acquire(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(held.has_value());

  // flock state is per-open-file-description, so a second acquire in the
  // same process genuinely contends (it opens the file separately).
  bool waited = false;
  auto blocked =
      FileLease::acquire(path, std::chrono::milliseconds(50), &waited);
  EXPECT_FALSE(blocked.has_value());
  EXPECT_TRUE(waited);

  // Once the holder releases, the next acquire succeeds within its wait.
  held->release();
  auto next = FileLease::acquire(path, std::chrono::milliseconds(500));
  EXPECT_TRUE(next.has_value());
}

TEST_F(FileLeaseTest, StaleLockFileOfDeadProcessIsTakenOver) {
  const std::string path = dir_ + "/cell.lock";
  // Forge a lock file naming a PID that cannot be alive (PID_MAX on Linux
  // is < 2^22 by default; 999999999 exceeds any configurable max), with no
  // flock held — exactly what a crashed holder leaves on filesystems where
  // the unlink in release() never ran.
  atomic_write_file(path, "pid 999999999\nsince 0\n");
  bool waited = false;
  auto l = FileLease::acquire(path, std::chrono::milliseconds(200), &waited);
  ASSERT_TRUE(l.has_value());  // dead holder detected, file removed, retaken
}

TEST_F(FileLeaseTest, OnlyAnUnheldLeaseFileIsRemovedAsOrphaned) {
  const std::string path = dir_ + "/cell.lock";
  FileLease::remove_if_orphaned(path);  // absent: nothing to do
  EXPECT_FALSE(std::filesystem::exists(path));

  // What a holder killed before its release leaves: a file nobody locks.
  atomic_write_file(path, "pid 999999999\nsince 0\n");
  FileLease::remove_if_orphaned(path);
  EXPECT_FALSE(std::filesystem::exists(path));

  // A live holder keeps its lease.
  auto held = FileLease::acquire(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(held.has_value());
  FileLease::remove_if_orphaned(path);
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST_F(FileLeaseTest, MoveTransfersOwnership) {
  const std::string path = dir_ + "/cell.lock";
  auto l1 = FileLease::acquire(path, std::chrono::milliseconds(0));
  ASSERT_TRUE(l1.has_value());
  FileLease l2 = std::move(*l1);
  l1.reset();  // destroying the moved-from lease must not release
  EXPECT_TRUE(std::filesystem::exists(path));
  l2.release();
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace omv::core
