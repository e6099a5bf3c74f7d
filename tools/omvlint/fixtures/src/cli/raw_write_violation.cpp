// Fixture: raw (non-atomic) file writes in a crash-safe path. Both sites
// must trip [atomic-writes] — cache and artifact bytes commit only through
// core/atomic_file so torn/ENOSPC injection stays meaningful.
#include <cstdio>
#include <fstream>
#include <string>

void save_artifact(const std::string& path, const std::string& bytes) {
  std::ofstream out(path);  // torn file on crash
  out << bytes;
}

void save_marker(const char* path) {
  FILE* f = fopen(path, "w");  // same, C flavor
  if (f) fclose(f);
}
