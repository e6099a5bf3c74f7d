// Fixture: a walked file (src/core, outside every file-scoped rule) using
// only allowed constructs — ordered containers, stderr logging,
// seed-derived RNG — must produce no diagnostics at all.
#include <cstdio>
#include <map>
#include <string>

std::string serialize_sorted(const std::map<std::string, int>& cells) {
  std::string out;
  for (const auto& [name, value] : cells) {  // std::map: ordered, fine
    out += name + "=" + std::to_string(value) + "\n";
  }
  std::fprintf(stderr, "serialized %zu cells\n", cells.size());
  return out;
}
