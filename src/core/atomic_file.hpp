#pragma once
// Crash-safe file commits, shared by the cache and artifact layers.
//
// atomic_write_file writes to a process-unique temp file in the target
// directory and renames it into place, so readers can never observe a
// half-written file: cache CSVs, .key commit markers, trace and panel
// sidecars and JSON artifacts all commit the same way. A process killed
// mid-write leaves at most a "<path>.tmp.<pid>" orphan next to an intact
// (or absent) target; remove_dead_writer_temps clears such orphans once
// their writer is gone. Each call names its fault-injection site ("cache",
// "key", "sidecar", "artifact", "campaign", ...) so the deterministic fault
// plan (core/faultinject.hpp) can tear or fail exactly the write a test
// targets.

#include <cstddef>
#include <string>
#include <string_view>

namespace omv::core {

/// Atomically commits `bytes` to `path` via tmp + rename. Throws
/// std::runtime_error on I/O failure and fault::InjectedFault when the
/// active fault plan fires at `site`:
///   * enospc: throws before writing anything;
///   * torn_write: writes the FIRST HALF of `bytes` directly to `path`
///     (no temp, no rename — the torn file a crashed non-atomic writer
///     would leave) and then throws, so readers' torn-entry tolerance is
///     exercised against a real torn file.
/// An empty `site` never matches fault clauses.
void atomic_write_file(const std::string& path, std::string_view bytes,
                       std::string_view site = {});

/// Removes every "<name>.tmp.<pid>" file directly in `dir` whose writer is
/// dead: kill(pid, 0) fails with ESRCH. A dead writer can never rename its
/// temp, so removing it loses nothing. A live pid (ours included), or one
/// this process may not signal (EPERM), keeps its temp, so a concurrent
/// campaign sharing `dir` is never disturbed. Returns the number of files
/// removed; an absent or unreadable `dir` removes nothing. On platforms
/// without getpid temps carry no pid and nothing is removed.
std::size_t remove_dead_writer_temps(const std::string& dir) noexcept;

/// Reads a whole file into `out`. Returns false when the file is absent or
/// unreadable (no throw — absence is an expected cache miss).
[[nodiscard]] bool read_file(const std::string& path, std::string& out);

}  // namespace omv::core
