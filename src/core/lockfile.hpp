#pragma once
// Advisory per-cell cache lease for concurrent campaigns sharing one
// --out directory.
//
// A lease is an flock(2)-held lock file ("<hash>.lock") whose content
// records the holder's PID and acquisition timestamp. Two campaigns racing
// on one cache entry resolve as: one acquires the lease and computes; the
// other blocks (bounded by the lease wait), then either finds the freshly
// committed entry on re-check or — on lease expiry / a stuck holder —
// recomputes without the lease. Correctness never depends on the lease:
// every cache artifact commits via atomic tmp+rename and the entries are
// deterministic, so the worst un-leased outcome is duplicate work whose
// last rename wins with identical bytes. The lease only prevents that
// duplicate work.
//
// Stale-lease handling: flock state dies with the holder's process, so a
// crashed holder releases the kernel lock automatically; the PID+timestamp
// probe additionally detects lock FILES left by dead holders (probed with
// kill(pid, 0)) and removes them, and bounds the wait on live-but-stuck
// holders by treating a lease older than the wait budget as expired. A
// holder killed after committing its entry leaves a lock file no later
// compute will take; cache hits clear it with remove_if_orphaned.
//
// On platforms without flock the lease degrades to "always acquired"
// (single-process semantics, the pre-PR behaviour).

#include <chrono>
#include <optional>
#include <string>

namespace omv::core {

/// A held cache lease; releases (unlink + unlock) on destruction.
class FileLease {
 public:
  FileLease(FileLease&& other) noexcept;
  FileLease& operator=(FileLease&& other) noexcept;
  FileLease(const FileLease&) = delete;
  FileLease& operator=(const FileLease&) = delete;
  ~FileLease();

  /// Tries to acquire the lease at `path`, waiting up to `wait` for a live
  /// holder. Returns the held lease, or nullopt when the wait expired with
  /// the lease still held (caller proceeds without it). `waited` (optional)
  /// reports whether another holder was observed at any point — the signal
  /// to re-check the cache before computing.
  static std::optional<FileLease> acquire(const std::string& path,
                                          std::chrono::milliseconds wait,
                                          bool* waited = nullptr);

  /// Releases early (idempotent).
  void release() noexcept;

  /// Removes the lease file at `path` when no process holds it: what a
  /// holder killed after committing its cache entry, but before releasing,
  /// leaves behind. An absent or held lease is left alone.
  static void remove_if_orphaned(const std::string& path) noexcept;

 private:
  explicit FileLease(std::string path, int fd) noexcept
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

}  // namespace omv::core
