#include "core/atomic_file.hpp"

#include <cerrno>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "core/faultinject.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <unistd.h>
#endif

namespace omv::core {

namespace {

std::string process_unique_tmp(const std::string& path) {
  // Per-process temp names keep two concurrent writers of the same target
  // from clobbering each other's in-flight temp file; the final rename is
  // then a last-writer-wins commit of a complete payload either way. Two
  // threads of one process share the name, so they must never commit one
  // target at once (the campaign gives each spec hash to one unit).
#if defined(__unix__) || defined(__APPLE__)
  return path + ".tmp." + std::to_string(::getpid());
#else
  return path + ".tmp";
#endif
}

void write_whole(const std::string& path, std::string_view bytes,
                 const char* what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error(std::string("cannot open ") + what + " '" +
                             path + "' for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error(std::string("short write to ") + what + " '" +
                             path + "'");
  }
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view bytes,
                       std::string_view site) {
  if (!site.empty()) {
    switch (fault::active_plan().on_write(site)) {
      case fault::WriteAction::kNone:
        break;
      case fault::WriteAction::kFail:
        throw fault::InjectedFault(
            "io", "injected write failure (enospc) at site '" +
                      std::string(site) + "' for '" + path + "'");
      case fault::WriteAction::kTorn:
        // A torn write is what a crashed NON-atomic writer leaves behind:
        // half the payload at the final path. Bypass the tmp+rename
        // discipline deliberately, then report the failure.
        write_whole(path, bytes.substr(0, bytes.size() / 2), "torn file");
        throw fault::InjectedFault(
            "io", "injected torn write at site '" + std::string(site) +
                      "' for '" + path + "'");
    }
  }
  const std::string tmp = process_unique_tmp(path);
  write_whole(tmp, bytes, "temp file");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string why = ec.message();
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("cannot commit '" + path +
                             "': rename failed: " + why);
  }
}

std::size_t remove_dead_writer_temps(const std::string& dir) noexcept {
  std::size_t removed = 0;
#if defined(__unix__) || defined(__APPLE__)
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    // Only a "<digits>" tail after the last ".tmp." parses, so a match in
    // the directory part of the path never does.
    const std::string& path = it->path().native();
    const auto dot = path.rfind(".tmp.");
    if (dot == std::string::npos) continue;
    const char* first = path.data() + dot + 5;
    const char* last = path.data() + path.size();
    long long pid = 0;
    const auto [ptr, err] = std::from_chars(first, last, pid);
    // A pid kill() reads as one process: 0 and negative values address
    // process groups.
    if (err != std::errc{} || ptr != last || pid <= 0 ||
        pid > std::numeric_limits<pid_t>::max()) {
      continue;
    }
    std::error_code file_ec;
    if (!it->is_regular_file(file_ec)) continue;
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    if (fs::remove(it->path(), file_ec)) ++removed;
  }
#else
  (void)dir;
#endif
  return removed;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::string buf;
  f.seekg(0, std::ios::end);
  const auto end = f.tellg();
  if (end > 0) buf.reserve(static_cast<std::size_t>(end));
  f.seekg(0, std::ios::beg);
  buf.assign(std::istreambuf_iterator<char>(f),
             std::istreambuf_iterator<char>());
  if (f.bad()) return false;
  out = std::move(buf);
  return true;
}

}  // namespace omv::core
