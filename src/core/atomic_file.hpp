#pragma once
// Crash-safe file commits, shared by the cache and artifact layers.
//
// atomic_write_file writes to a process-unique temp file in the target
// directory and renames it into place, so readers can never observe a
// half-written file: cache CSVs, .key commit markers, trace and panel
// sidecars and JSON artifacts all commit the same way. A process killed
// mid-write leaves at most a "<path>.tmp.<pid>" orphan next to an intact
// (or absent) target. Each call names its fault-injection site ("cache",
// "key", "sidecar", "artifact", "campaign", ...) so the deterministic fault
// plan (core/faultinject.hpp) can tear or fail exactly the write a test
// targets.

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

/// Reads a whole file into `out`. Returns false when the file is absent or
/// unreadable (no throw — absence is an expected cache miss).
[[nodiscard]] bool read_file(const std::string& path, std::string& out);

/// Best-effort unlink; returns true when the file existed and was removed.
bool remove_file_if_exists(const std::string& path) noexcept;

}  // namespace omv::core
