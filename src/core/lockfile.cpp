#include "core/lockfile.hpp"

#include <cerrno>
#include <cstdio>
#include <ctime>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define OMNIVAR_HAVE_FLOCK 1
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define OMNIVAR_HAVE_FLOCK 0
#endif

namespace omv::core {

#if OMNIVAR_HAVE_FLOCK

namespace {

constexpr auto kPollSlice = std::chrono::milliseconds(10);

/// Writes "pid <pid>\nsince <unix-seconds>\n" into the held lock fd.
void write_lease_info(int fd) {
  char buf[64];
  const int n = std::snprintf(
      buf, sizeof(buf), "pid %ld\nsince %lld\n", static_cast<long>(::getpid()),
      static_cast<long long>(::time(nullptr)));
  if (n > 0) {
    (void)::ftruncate(fd, 0);
    (void)::pwrite(fd, buf, static_cast<std::size_t>(n), 0);
  }
}

/// True when `path` still names the inode open as `fd` (a releasing holder
/// may have unlinked it, and another may have created a fresh one).
bool names_fd(const std::string& path, int fd) {
  struct stat by_fd{};
  struct stat by_name{};
  return ::fstat(fd, &by_fd) == 0 && ::stat(path.c_str(), &by_name) == 0 &&
         by_fd.st_ino == by_name.st_ino && by_fd.st_dev == by_name.st_dev;
}

/// Parses the holder PID out of a lease file; 0 when unreadable.
long read_lease_pid(int fd) {
  char buf[64] = {0};
  const ssize_t n = ::pread(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return 0;
  long pid = 0;
  if (std::sscanf(buf, "pid %ld", &pid) != 1) return 0;
  return pid;
}

}  // namespace

std::optional<FileLease> FileLease::acquire(const std::string& path,
                                            std::chrono::milliseconds wait,
                                            bool* waited) {
  if (waited) *waited = false;
  const auto deadline = std::chrono::steady_clock::now() + wait;
  for (;;) {
    // Re-open by name every attempt: a released lease unlinks its file, so
    // a blocked waiter must not keep flocking a dead inode.
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return std::nullopt;  // unwritable cache dir: no lease
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
      // Guard against the unlink race: if the path no longer names this
      // inode (the previous holder released between our open and flock),
      // retry on the fresh file.
      if (names_fd(path, fd)) {
        write_lease_info(fd);
        return FileLease(path, fd);
      }
      ::flock(fd, LOCK_UN);
      ::close(fd);
      continue;
    }
    // Lease held elsewhere. A lease file whose recorded holder is dead can
    // only appear where flock state outlived the process (or the content is
    // garbage); remove it and retry on a fresh inode.
    if (waited) *waited = true;
    const long pid = read_lease_pid(fd);
    ::close(fd);
    if (pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
        errno == ESRCH) {
      (void)::unlink(path.c_str());
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(kPollSlice);
  }
}

void FileLease::remove_if_orphaned(const std::string& path) noexcept {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return;  // no lease file: the common case
  // Unlink only while holding the lock on the inode the path names, so a
  // lease taken in the meantime is never removed.
  if (::flock(fd, LOCK_EX | LOCK_NB) == 0 && names_fd(path, fd)) {
    (void)::unlink(path.c_str());
  }
  (void)::close(fd);
}

void FileLease::release() noexcept {
  if (fd_ < 0) return;
  // Unlink while still holding the lock: new acquirers then race onto a
  // fresh inode instead of flocking this one after we let go.
  (void)::unlink(path_.c_str());
  (void)::flock(fd_, LOCK_UN);
  (void)::close(fd_);
  fd_ = -1;
}

#else  // !OMNIVAR_HAVE_FLOCK

std::optional<FileLease> FileLease::acquire(const std::string& path,
                                            std::chrono::milliseconds,
                                            bool* waited) {
  if (waited) *waited = false;
  return FileLease(path, -2);  // degraded: always "acquired", nothing held
}

void FileLease::release() noexcept { fd_ = -1; }

void FileLease::remove_if_orphaned(const std::string&) noexcept {}

#endif

FileLease::FileLease(FileLease&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_) {
  other.fd_ = -1;
}

FileLease& FileLease::operator=(FileLease&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

FileLease::~FileLease() { release(); }

}  // namespace omv::core
