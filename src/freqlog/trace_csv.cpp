#include "freqlog/trace_csv.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "core/atomic_file.hpp"

namespace omv::freqlog {

namespace {

[[noreturn]] void bad_line(const char* what, std::size_t line_no) {
  throw std::invalid_argument("freq-trace CSV: " + std::string(what) +
                              " at line " + std::to_string(line_no));
}

void write_double(std::ostream& os, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  os.write(buf, res.ptr - buf);
}

constexpr std::string_view kPanelHeader = "omnivar-freq-panel-v1";

[[noreturn]] void bad_panel(const std::string& what) {
  throw std::invalid_argument("freq-panel record: " + what);
}

/// Consumes the next line of `rest`, which must end in '\n'.
std::string_view take_line(std::string_view& rest, std::string_view what) {
  const auto nl = rest.find('\n');
  if (nl == std::string_view::npos) {
    bad_panel("truncated at " + std::string(what));
  }
  const std::string_view line = rest.substr(0, nl);
  rest.remove_prefix(nl + 1);
  return line;
}

/// Consumes the next "key=value\n" line of `rest` and parses its value,
/// which must fill the rest of the line.
template <typename T>
T take_field(std::string_view& rest, std::string_view key) {
  std::string_view line = take_line(rest, key);
  if (!line.starts_with(key) || line.size() == key.size() ||
      line[key.size()] != '=') {
    bad_panel("expected '" + std::string(key) + "=', got '" +
              std::string(line) + "'");
  }
  line.remove_prefix(key.size() + 1);
  T v{};
  const auto r = std::from_chars(line.data(), line.data() + line.size(), v);
  if (r.ec != std::errc{} || r.ptr != line.data() + line.size()) {
    bad_panel("bad " + std::string(key) + " '" + std::string(line) + "'");
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) bad_panel("non-finite " + std::string(key));
  }
  return v;
}

}  // namespace

void write_freq_trace_csv(std::ostream& os, const FreqTrace& trace) {
  os << "time,core,ghz\n";
  for (const auto& s : trace.samples()) {
    write_double(os, s.time);
    os << ',' << s.core << ',';
    write_double(os, s.ghz);
    os << '\n';
  }
}

std::string freq_trace_to_csv(const FreqTrace& trace) {
  std::ostringstream os;
  write_freq_trace_csv(os, trace);
  return os.str();
}

FreqTrace read_freq_trace_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::invalid_argument("freq-trace CSV: empty input");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != "time,core,ghz") {
    throw std::invalid_argument("freq-trace CSV: bad header '" + line + "'");
  }
  FreqTrace trace;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    FreqSample s;
    const char* p = line.data();
    const char* end = line.data() + line.size();
    auto r1 = std::from_chars(p, end, s.time);
    if (r1.ec != std::errc{} || r1.ptr == end || *r1.ptr != ',') {
      bad_line("bad time", line_no);
    }
    auto r2 = std::from_chars(r1.ptr + 1, end, s.core);
    if (r2.ec != std::errc{} || r2.ptr == end || *r2.ptr != ',') {
      bad_line("bad core", line_no);
    }
    auto r3 = std::from_chars(r2.ptr + 1, end, s.ghz);
    if (r3.ec != std::errc{}) bad_line("bad ghz", line_no);
    if (r3.ptr != end) bad_line("trailing garbage after ghz", line_no);
    trace.add(s);
  }
  return trace;
}

FreqTrace freq_trace_from_csv(const std::string& csv) {
  std::istringstream is(csv);
  return read_freq_trace_csv(is);
}

void save_freq_trace(const std::string& path, const FreqTrace& trace) {
  // Atomic commit (site "sidecar"): in a campaign these ride the cache as
  // <hash>.trace.csv sidecars, committed before the .key marker.
  core::atomic_write_file(path, freq_trace_to_csv(trace), "sidecar");
}

FreqTrace load_freq_trace(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open '" + path + "'");
  return read_freq_trace_csv(f);
}

FreqPanelSummary summarize_panel(const FreqTrace& trace,
                                 const std::vector<double>& fmax_per_core,
                                 double threshold_fraction) {
  const auto e = trace.extremes();
  FreqPanelSummary s;
  s.samples = trace.size();
  s.min = e.min;
  s.mean = e.mean;
  s.max = e.max;
  s.below = trace.fraction_below(fmax_per_core, threshold_fraction);
  s.episodes = trace.episode_count(fmax_per_core, threshold_fraction);
  s.threshold = threshold_fraction;
  return s;
}

std::string panel_summary_to_text(const FreqPanelSummary& s) {
  std::ostringstream os;
  os << kPanelHeader << "\nsamples=" << s.samples << "\nmin=";
  write_double(os, s.min);
  os << "\nmean=";
  write_double(os, s.mean);
  os << "\nmax=";
  write_double(os, s.max);
  os << "\nbelow=";
  write_double(os, s.below);
  os << "\nepisodes=" << s.episodes << "\nthreshold=";
  write_double(os, s.threshold);
  os << '\n';
  return os.str();
}

FreqPanelSummary panel_summary_from_text(const std::string& text,
                                         double expected_threshold) {
  std::string_view rest(text);
  if (take_line(rest, "header") != kPanelHeader) bad_panel("bad header");
  FreqPanelSummary s;
  s.samples = take_field<std::size_t>(rest, "samples");
  s.min = take_field<double>(rest, "min");
  s.mean = take_field<double>(rest, "mean");
  s.max = take_field<double>(rest, "max");
  s.below = take_field<double>(rest, "below");
  s.episodes = take_field<std::size_t>(rest, "episodes");
  s.threshold = take_field<double>(rest, "threshold");
  if (!rest.empty()) bad_panel("trailing bytes after threshold");
  if (s.threshold != expected_threshold) {
    bad_panel("threshold " + std::to_string(s.threshold) + ", expected " +
              std::to_string(expected_threshold));
  }
  return s;
}

void save_panel_summary(const std::string& path, const FreqPanelSummary& s) {
  // Committed like the trace sidecar: before the cache entry's .key marker.
  core::atomic_write_file(path, panel_summary_to_text(s), "sidecar");
}

FreqPanelSummary load_panel_summary(const std::string& path,
                                    double expected_threshold) {
  std::string text;
  if (!core::read_file(path, text)) {
    throw std::runtime_error("cannot read '" + path + "'");
  }
  return panel_summary_from_text(text, expected_threshold);
}

}  // namespace omv::freqlog
