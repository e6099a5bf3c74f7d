#include "cli/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/executor.hpp"

namespace omv::cli {

bool parse_uint(const char* text, std::size_t& out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_job_count(const char* text, std::size_t& out) {
  std::size_t v = 0;
  if (!parse_uint(text, v) || v > kMaxJobs) return false;
  out = core::resolve_jobs(v);
  return true;
}

namespace {

/// Matches `--flag=value` or `--flag value`; on a match, `value` points at
/// the value and `i` is advanced past a separate-argument value.
const char* flag_value(const char* flag, int argc, char** argv, int& i,
                       std::vector<std::string>& errors) {
  const char* arg = argv[i];
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] != '\0') return nullptr;  // e.g. --outfoo
  if (i + 1 >= argc) {
    errors.push_back(std::string(flag) + " requires a value");
    return nullptr;
  }
  return argv[++i];
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      o.list = true;
      continue;
    }
    if (std::strcmp(arg, "--scenarios") == 0) {
      o.list_scenarios = true;
      continue;
    }
    if (std::strcmp(arg, "--version") == 0) {
      o.version = true;
      continue;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      o.help = true;
      continue;
    }
    if (std::strcmp(arg, "--plan") == 0) {
      o.plan = true;
      continue;
    }
    if (const char* v = flag_value("--only", argc, argv, i, o.errors)) {
      o.only.emplace_back(v);
      continue;
    }
    if (const char* v = flag_value("--jobs", argc, argv, i, o.errors)) {
      std::size_t n = 0;
      if (parse_job_count(v, n)) {
        o.jobs = n;
      } else {
        o.errors.push_back("malformed --jobs value '" + std::string(v) +
                           "' (expected a job count from 0 to " +
                           std::to_string(kMaxJobs) + ")");
      }
      continue;
    }
    if (const char* v = flag_value("--cell-jobs", argc, argv, i, o.errors)) {
      std::size_t n = 0;
      if (parse_job_count(v, n)) {
        o.cell_jobs = n;
      } else {
        o.errors.push_back("malformed --cell-jobs value '" + std::string(v) +
                           "' (expected a job count from 0 to " +
                           std::to_string(kMaxJobs) + ")");
      }
      continue;
    }
    if (const char* v =
            flag_value("--scenario-set", argc, argv, i, o.errors)) {
      o.scenario_set = v;
      continue;
    }
    if (const char* v = flag_value("--scenario", argc, argv, i, o.errors)) {
      o.scenarios.emplace_back(v);
      continue;
    }
    if (const char* v = flag_value("--out", argc, argv, i, o.errors)) {
      o.out_dir = v;
      continue;
    }
    if (const char* v = flag_value("--retry-cells", argc, argv, i, o.errors)) {
      std::size_t n = 0;
      if (parse_uint(v, n)) {
        o.retry_cells = n;
      } else {
        o.errors.push_back("malformed --retry-cells value '" +
                           std::string(v) +
                           "' (expected a non-negative integer)");
      }
      continue;
    }
    if (const char* v =
            flag_value("--cell-timeout", argc, argv, i, o.errors)) {
      std::size_t n = 0;
      if (parse_uint(v, n)) {
        o.cell_timeout_ms = n;
      } else {
        o.errors.push_back("malformed --cell-timeout value '" +
                           std::string(v) +
                           "' (expected milliseconds as a non-negative "
                           "integer)");
      }
      continue;
    }
    if (const char* v = flag_value("--fault-spec", argc, argv, i, o.errors)) {
      o.fault_spec = v;
      continue;
    }
    // flag_value may already have recorded a missing-value error for this
    // argument; only flag it as unknown when it did not consume it.
    if (std::strcmp(arg, "--only") != 0 && std::strcmp(arg, "--jobs") != 0 &&
        std::strcmp(arg, "--cell-jobs") != 0 &&
        std::strcmp(arg, "--scenario") != 0 &&
        std::strcmp(arg, "--scenario-set") != 0 &&
        std::strcmp(arg, "--out") != 0 &&
        std::strcmp(arg, "--retry-cells") != 0 &&
        std::strcmp(arg, "--cell-timeout") != 0 &&
        std::strcmp(arg, "--fault-spec") != 0) {
      o.errors.push_back("unknown argument '" + std::string(arg) + "'");
    }
  }
  return o;
}

std::size_t effective_jobs(std::size_t cli_jobs) {
  if (cli_jobs != 0) return cli_jobs;
  if (const char* j = std::getenv("OMNIVAR_JOBS")) {
    std::size_t n = 0;
    if (parse_job_count(j, n)) return n;
    static bool warned = [&] {
      std::fprintf(stderr,
                   "omnivar: ignoring malformed OMNIVAR_JOBS='%s' "
                   "(expected a job count from 0 to %zu); running serial\n",
                   j, kMaxJobs);
      return true;
    }();
    (void)warned;
  }
  return 1;
}

std::vector<std::string> effective_scenarios(const Options& o) {
  std::vector<std::string> out = o.scenarios;
  if (!o.scenario_set.empty()) {
    std::ifstream in(o.scenario_set);
    if (!in) {
      throw std::runtime_error("cannot read --scenario-set file '" +
                               o.scenario_set + "'");
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t b = line.find_first_not_of(" \t\r");
      if (b == std::string::npos) continue;
      const std::size_t e = line.find_last_not_of(" \t\r");
      line = line.substr(b, e - b + 1);
      if (line.empty() || line[0] == '#') continue;
      out.push_back(line);
    }
  }
  if (out.empty()) {
    if (const char* s = std::getenv("OMNIVAR_SCENARIO"); s && *s != '\0') {
      out.emplace_back(s);
    }
  }
  return out;
}

std::size_t effective_cell_jobs(std::size_t cli_cell_jobs) {
  if (cli_cell_jobs != 0) return cli_cell_jobs;
  if (const char* j = std::getenv("OMNIVAR_CELL_JOBS")) {
    std::size_t n = 0;
    if (parse_job_count(j, n)) return n;
    static bool warned = [&] {
      std::fprintf(stderr,
                   "omnivar: ignoring malformed OMNIVAR_CELL_JOBS='%s' "
                   "(expected a job count from 0 to %zu)\n",
                   j, kMaxJobs);
      return true;
    }();
    (void)warned;
  }
  return 1;
}

std::size_t effective_width(const Options& o) {
  return std::max(effective_jobs(o.jobs), effective_cell_jobs(o.cell_jobs));
}

std::size_t effective_retry_cells(std::size_t cli_retries) {
  if (cli_retries != 0) return cli_retries;
  if (const char* e = std::getenv("OMNIVAR_RETRY_CELLS")) {
    std::size_t n = 0;
    if (parse_uint(e, n)) return n;
    static bool warned = [&] {
      std::fprintf(stderr,
                   "omnivar: ignoring malformed OMNIVAR_RETRY_CELLS='%s' "
                   "(expected a non-negative integer)\n",
                   e);
      return true;
    }();
    (void)warned;
  }
  return 0;
}

std::size_t effective_cell_timeout_ms(std::size_t cli_ms) {
  if (cli_ms != 0) return cli_ms;
  if (const char* e = std::getenv("OMNIVAR_CELL_TIMEOUT_MS")) {
    std::size_t n = 0;
    if (parse_uint(e, n)) return n;
    static bool warned = [&] {
      std::fprintf(stderr,
                   "omnivar: ignoring malformed OMNIVAR_CELL_TIMEOUT_MS="
                   "'%s' (expected milliseconds as a non-negative "
                   "integer)\n",
                   e);
      return true;
    }();
    (void)warned;
  }
  return 0;
}

std::string effective_fault_spec(const std::string& cli_spec) {
  if (!cli_spec.empty()) return cli_spec;
  if (const char* s = std::getenv("OMNIVAR_FAULT_SPEC")) return s;
  return {};
}

}  // namespace omv::cli
