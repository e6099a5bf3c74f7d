#include "cli/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/faultinject.hpp"

namespace omv::cli {

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::add(HarnessInfo info) {
  for (const auto& h : harnesses_) {
    if (h.name == info.name) {
      throw std::invalid_argument("duplicate harness registration '" +
                                  info.name + "'");
    }
  }
  harnesses_.push_back(std::move(info));
  sorted_ = false;
}

const std::vector<HarnessInfo>& Registry::all() const {
  if (!sorted_) {
    std::sort(harnesses_.begin(), harnesses_.end(),
              [](const HarnessInfo& a, const HarnessInfo& b) {
                return a.name < b.name;
              });
    sorted_ = true;
  }
  return harnesses_;
}

const HarnessInfo* Registry::find(std::string_view name) const {
  for (const auto& h : all()) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::vector<const HarnessInfo*> Registry::match(
    const std::vector<std::string>& globs) const {
  std::vector<const HarnessInfo*> out;
  for (const auto& h : all()) {
    if (globs.empty()) {
      out.push_back(&h);
      continue;
    }
    for (const auto& g : globs) {
      if (fault::glob_match(g, h.name)) {
        out.push_back(&h);
        break;
      }
    }
  }
  return out;
}

Registration::Registration(std::string name, std::string description,
                           std::function<int(RunContext&)> run) {
  Registry::instance().add(
      {std::move(name), std::move(description), std::move(run)});
}

}  // namespace omv::cli
