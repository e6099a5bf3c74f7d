#include "core/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/atomic_file.hpp"

namespace omv::io {

namespace {

[[noreturn]] void bad_line(const char* what, std::size_t line_no) {
  throw std::invalid_argument("run-matrix CSV: " + std::string(what) +
                              " at line " + std::to_string(line_no));
}

[[noreturn]] void past_run_cap(const char* what, std::size_t value,
                               std::size_t line_no) {
  throw std::invalid_argument(
      "run-matrix CSV: " + std::string(what) + " " + std::to_string(value) +
      " at line " + std::to_string(line_no) + " is past the cap of " +
      std::to_string(kMaxRunMatrixRuns) + " runs");
}

}  // namespace

void write_run_matrix_csv(std::ostream& os, const RunMatrix& m) {
  os << "run,rep,time\n";
  // Authoritative run count: empty runs write no data rows, so without this
  // a trailing empty run would silently vanish on read-back.
  os << "# runs=" << m.runs() << '\n';
  for (std::size_t r = 0; r < m.runs(); ++r) {
    const auto row = m.run(r);
    for (std::size_t k = 0; k < row.size(); ++k) {
      os << r << ',' << k << ',';
      // Full round-trip precision.
      char buf[32];
      const auto res =
          std::to_chars(buf, buf + sizeof(buf), row[k],
                        std::chars_format::general, 17);
      os.write(buf, res.ptr - buf);
      os << '\n';
    }
  }
}

std::string run_matrix_to_csv(const RunMatrix& m) {
  std::ostringstream os;
  write_run_matrix_csv(os, m);
  return os.str();
}

RunMatrix read_run_matrix_csv(std::istream& is, std::string label) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::invalid_argument("run-matrix CSV: empty input");
  }
  if (line != "run,rep,time" && line != "run,rep,time\r") {
    throw std::invalid_argument("run-matrix CSV: bad header '" + line + "'");
  }
  std::map<std::size_t, std::map<std::size_t, double>> rows;
  bool have_declared_runs = false;
  std::size_t declared_runs = 0;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Metadata / comment line. "# runs=N" declares the authoritative run
      // count (it preserves empty runs, including trailing ones).
      const std::string_view sv(line);
      constexpr std::string_view kRunsKey = "# runs=";
      if (sv.rfind(kRunsKey, 0) == 0) {
        const char* p = line.data() + kRunsKey.size();
        const char* end = line.data() + line.size();
        std::size_t n = 0;
        const auto r = std::from_chars(p, end, n);
        if (r.ec != std::errc{} || r.ptr != end) {
          bad_line("malformed '# runs=' metadata", line_no);
        }
        if (n > kMaxRunMatrixRuns) past_run_cap("declared runs", n, line_no);
        have_declared_runs = true;
        declared_runs = n;
      }
      continue;
    }
    std::size_t run = 0;
    std::size_t rep = 0;
    double time = 0.0;
    const char* p = line.data();
    const char* end = line.data() + line.size();
    auto r1 = std::from_chars(p, end, run);
    if (r1.ec != std::errc{} || r1.ptr == end || *r1.ptr != ',') {
      bad_line("bad run", line_no);
    }
    if (run >= kMaxRunMatrixRuns) past_run_cap("run index", run, line_no);
    auto r2 = std::from_chars(r1.ptr + 1, end, rep);
    if (r2.ec != std::errc{} || r2.ptr == end || *r2.ptr != ',') {
      bad_line("bad rep", line_no);
    }
    auto r3 = std::from_chars(r2.ptr + 1, end, time);
    if (r3.ec != std::errc{}) {
      bad_line("bad time", line_no);
    }
    if (r3.ptr != end) {
      bad_line("trailing garbage after time", line_no);
    }
    const auto [it, inserted] = rows[run].emplace(rep, time);
    (void)it;
    if (!inserted) {
      throw std::invalid_argument(
          "run-matrix CSV: duplicate cell (run " + std::to_string(run) +
          ", rep " + std::to_string(rep) + ") at line " +
          std::to_string(line_no));
    }
  }
  const std::size_t max_seen_runs =
      rows.empty() ? 0 : rows.rbegin()->first + 1;
  if (have_declared_runs && max_seen_runs > declared_runs) {
    throw std::invalid_argument(
        "run-matrix CSV: data row for run " +
        std::to_string(rows.rbegin()->first) + " but '# runs=" +
        std::to_string(declared_runs) + "' declared");
  }
  const std::size_t n_runs =
      have_declared_runs ? declared_runs : max_seen_runs;
  RunMatrix m(std::move(label));
  for (std::size_t r = 0; r < n_runs; ++r) {
    std::vector<double> reps;
    const auto it = rows.find(r);
    if (it == rows.end()) {
      // A run with no rows is an empty run — legitimate only when the file
      // declares its run count (our writer always does). In a legacy file
      // without metadata a gap means rows went missing: fail loudly rather
      // than emit an empty row that poisons per-run statistics downstream.
      if (!have_declared_runs) {
        throw std::invalid_argument(
            "run-matrix CSV: no rows for run " + std::to_string(r) +
            " (of " + std::to_string(n_runs) +
            ") — truncated or gapped input");
      }
      m.add_run(std::move(reps));
      continue;
    }
    // Rep indices must be exactly 0..K-1: a gap means a lost repetition,
    // and silently compacting it would misalign rep-indexed analyses
    // (autocorrelation, periodic-noise detection).
    std::size_t expected = 0;
    for (const auto& [rep, t] : it->second) {
      if (rep != expected) {
        throw std::invalid_argument(
            "run-matrix CSV: run " + std::to_string(r) + " is missing rep " +
            std::to_string(expected) + " (next present: rep " +
            std::to_string(rep) + ")");
      }
      ++expected;
      reps.push_back(t);
    }
    m.add_run(std::move(reps));
  }
  return m;
}

RunMatrix run_matrix_from_csv(const std::string& csv, std::string label) {
  std::istringstream is(csv);
  return read_run_matrix_csv(is, std::move(label));
}

void save_run_matrix(const std::string& path, const RunMatrix& m) {
  // Atomic commit: a crash mid-save must leave the previous file (or no
  // file), never a torn CSV. Site "cache" — in a campaign these files are
  // the cache entries the fault plan targets.
  core::atomic_write_file(path, run_matrix_to_csv(m), "cache");
}

RunMatrix load_run_matrix(const std::string& path, std::string label) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  return read_run_matrix_csv(f, std::move(label));
}

}  // namespace omv::io
