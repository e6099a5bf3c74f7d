// Unit tests for freqlog/trace_csv: frequency-trace CSV round-trips and
// strict parsing (the fig6/fig7 archived trace), and the panel-summary
// record a warm fig6/fig7 cache hit restores.

#include "freqlog/trace_csv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "sim/freq.hpp"

namespace omv::freqlog {
namespace {

FreqTrace sample() {
  FreqTrace t;
  t.add({0.00, 0, 2.45});
  t.add({0.01, 0, 2.25});
  t.add({0.00, 1, 2.45 / 3.0});  // exercise full precision
  return t;
}

TEST(TraceCsv, RoundTripExact) {
  const auto t = sample();
  const auto back = freq_trace_from_csv(freq_trace_to_csv(t));
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.samples()[i].time, t.samples()[i].time);
    EXPECT_EQ(back.samples()[i].core, t.samples()[i].core);
    EXPECT_EQ(back.samples()[i].ghz, t.samples()[i].ghz);
  }
}

TEST(TraceCsv, RoundTripPreservesDerivedStatistics) {
  const auto t = sample();
  const auto back = freq_trace_from_csv(freq_trace_to_csv(t));
  EXPECT_EQ(back.fraction_below(2.45, 0.95), t.fraction_below(2.45, 0.95));
  EXPECT_EQ(back.episode_count(2.45, 0.95), t.episode_count(2.45, 0.95));
  EXPECT_EQ(back.extremes().mean, t.extremes().mean);
}

TEST(TraceCsv, EmptyTraceRoundTrips) {
  const auto back = freq_trace_from_csv(freq_trace_to_csv(FreqTrace{}));
  EXPECT_EQ(back.size(), 0u);
}

TEST(TraceCsv, RejectsMalformedInput) {
  EXPECT_THROW(static_cast<void>(freq_trace_from_csv("")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(freq_trace_from_csv("nope\n")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(freq_trace_from_csv("time,core,ghz\nx,0,2.0\n")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(freq_trace_from_csv("time,core,ghz\n0.0,y,2.0\n")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(freq_trace_from_csv("time,core,ghz\n0.0,0,zz\n")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(freq_trace_from_csv("time,core,ghz\n0.0,0,2.0,junk\n")),
               std::invalid_argument);
}

TEST(TraceCsv, ToleratesCommentsBlanksAndCrlf) {
  const auto t = freq_trace_from_csv(
      "time,core,ghz\r\n# comment\r\n\r\n0.5,3,2.25\r\n");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.samples()[0].core, 3u);
  EXPECT_DOUBLE_EQ(t.samples()[0].ghz, 2.25);
}

TEST(TraceCsv, FileErrorsThrow) {
  EXPECT_THROW(static_cast<void>(load_freq_trace("/nonexistent/dir/x.csv")),
               std::runtime_error);
  EXPECT_THROW(save_freq_trace("/nonexistent/dir/x.csv", FreqTrace{}),
               std::runtime_error);
}

// ------------------------------------------------------------ panel summary

/// A summary whose doubles need all 17 significant digits.
FreqPanelSummary awkward_summary() {
  FreqPanelSummary s;
  s.samples = std::numeric_limits<std::size_t>::max();
  s.min = 2.45 / 3.0;
  s.mean = 0.1 + 0.2;
  s.max = std::nextafter(3.7, 4.0);
  s.below = 1.0 / 3.0;
  s.episodes = 123457;
  s.threshold = 0.95;
  return s;
}

void expect_bit_equal(const FreqPanelSummary& a, const FreqPanelSummary& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.below, b.below);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.threshold, b.threshold);
}

TEST(PanelSummary, RoundTripIsBitExact) {
  const auto s = awkward_summary();
  const std::string text = panel_summary_to_text(s);
  EXPECT_EQ(text.rfind("omnivar-freq-panel-v1\nsamples=", 0), 0u);
  expect_bit_equal(panel_summary_from_text(text, 0.95), s);
}

TEST(PanelSummary, EmptyTraceSummarizesToZerosAndRoundTrips) {
  const auto s = summarize_panel(FreqTrace{}, {2.45, 2.45}, 0.95);
  EXPECT_EQ(s.samples, 0u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.below, 0.0);
  EXPECT_EQ(s.episodes, 0u);
  EXPECT_EQ(s.threshold, 0.95);
  expect_bit_equal(panel_summary_from_text(panel_summary_to_text(s), 0.95),
                   s);
}

/// The lines of a '\n'-terminated record, without their terminators.
std::vector<std::string> lines_of(const std::string& record) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  for (std::size_t nl; (nl = record.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    lines.push_back(record.substr(pos, nl - pos));
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + '\n';
  return out;
}

TEST(PanelSummary, RejectsMalformedRecords) {
  const std::string good = panel_summary_to_text(awkward_summary());
  ASSERT_NO_THROW(static_cast<void>(panel_summary_from_text(good, 0.95)));
  // 0 header, 1 samples, 2 min, 3 mean, 4 max, 5 below, 6 episodes,
  // 7 threshold.
  const auto lines = lines_of(good);
  ASSERT_EQ(lines.size(), 8u);
  const auto with = [&](std::size_t n, const std::string& line) {
    auto v = lines;
    v[n] = line;
    return join(v);
  };
  const auto without = [&](std::size_t n) {
    auto v = lines;
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(n));
    return join(v);
  };
  auto reordered = lines;
  std::swap(reordered[2], reordered[3]);

  const std::vector<std::pair<const char*, std::string>> bad = {
      {"empty", ""},
      {"missing header", without(0)},
      {"bad header", with(0, "omnivar-freq-panel-v2")},
      {"CRLF header", with(0, "omnivar-freq-panel-v1\r")},
      {"header only", "omnivar-freq-panel-v1\n"},
      {"missing key", without(3)},
      {"reordered keys", join(reordered)},
      {"duplicated key", with(3, lines[2])},
      {"unknown key", with(2, "minimum=1")},
      {"empty value", with(2, "min=")},
      {"key without '='", with(2, "min")},
      {"non-numeric value", with(2, "min=fast")},
      {"padded value", with(2, "min= 1.5")},
      {"CRLF line", with(2, lines[2] + "\r")},
      {"nan", with(2, "min=nan")},
      {"infinity", with(4, "max=inf")},
      {"negative count", with(1, "samples=-1")},
      {"fractional count", with(6, "episodes=1.5")},
      {"count overflow", with(1, "samples=18446744073709551616")},
      {"trailing garbage in a value", with(5, "below=0.5x")},
      {"trailing bytes", good + "x"},
      {"trailing blank line", good + "\n"},
      {"extra field", good + "extra=1\n"},
  };
  for (const auto& [what, text] : bad) {
    EXPECT_THROW(static_cast<void>(panel_summary_from_text(text, 0.95)),
                 std::invalid_argument)
        << what;
  }
}

TEST(PanelSummary, RejectsEveryTruncation) {
  const std::string good = panel_summary_to_text(awkward_summary());
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW(
        static_cast<void>(panel_summary_from_text(good.substr(0, n), 0.95)),
        std::invalid_argument)
        << "truncated to " << n << " bytes";
  }
}

TEST(PanelSummary, RejectsAThresholdMismatch) {
  const std::string good = panel_summary_to_text(awkward_summary());
  EXPECT_THROW(static_cast<void>(panel_summary_from_text(good, 0.9)),
               std::invalid_argument);
  // One ulp off is still another threshold.
  EXPECT_THROW(static_cast<void>(panel_summary_from_text(
                   good, std::nextafter(0.95, 1.0))),
               std::invalid_argument);
}

TEST(PanelSummary, FileRoundTripAndErrors) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("omnivar_panel_" +
        std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
        ".panel"))
          .string();
  const auto s = awkward_summary();
  save_panel_summary(path, s);
  expect_bit_equal(load_panel_summary(path, 0.95), s);
  std::filesystem::remove(path);
  EXPECT_THROW(static_cast<void>(load_panel_summary(path, 0.95)),
               std::runtime_error);
  EXPECT_THROW(save_panel_summary("/nonexistent/dir/x.panel", s),
               std::runtime_error);
}

/// A dippy 60 s trace of every core of `m` under `freq`, with remote
/// traffic from two NUMA domains (the fig6/fig7 cross-NUMA setting).
FreqTrace dippy_trace(const topo::Machine& m, const sim::FreqConfig& freq) {
  sim::FreqModel model(m, freq);
  model.begin_run(3);
  model.set_activity_domains(2);
  SimFreqReader reader(model, m.n_cores());
  return sample_sim(reader, 0.0, 60.0, 0.01);
}

std::vector<double> per_core_fmax(const topo::Machine& m) {
  std::vector<double> f(m.n_cores());
  for (std::size_t c = 0; c < m.n_cores(); ++c) f[c] = m.core_max_ghz(c);
  return f;
}

/// The summary must reproduce, bit for bit, the FreqTrace queries fig6 and
/// fig7 used to make on every run.
void expect_matches_trace_queries(const FreqTrace& trace,
                                  const std::vector<double>& fmax) {
  const auto s = summarize_panel(trace, fmax, 0.95);
  const auto e = trace.extremes();
  EXPECT_EQ(s.samples, trace.size());
  EXPECT_EQ(s.min, e.min);
  EXPECT_EQ(s.mean, e.mean);
  EXPECT_EQ(s.max, e.max);
  EXPECT_EQ(s.below, trace.fraction_below(fmax, 0.95));
  EXPECT_EQ(s.episodes, trace.episode_count(fmax, 0.95));
  EXPECT_EQ(s.threshold, 0.95);
  expect_bit_equal(panel_summary_from_text(panel_summary_to_text(s), 0.95),
                   s);
}

TEST(PanelSummary, MatchesTraceQueriesOnAUniformMachine) {
  const topo::Machine m = topo::Machine::vera();
  const auto trace = dippy_trace(m, sim::FreqConfig::vera_dippy());
  ASSERT_GT(trace.size(), 0u);
  ASSERT_GT(trace.episode_count(m.max_ghz(), 0.95), 0u);
  expect_matches_trace_queries(trace, per_core_fmax(m));
}

TEST(PanelSummary, MatchesTraceQueriesOnAPerCoreFmaxMachine) {
  const auto& scn = scenario::ScenarioRegistry::instance().get("biglittle");
  const topo::Machine m = scn.machine.build();
  const auto trace = dippy_trace(m, scn.freq_session);
  ASSERT_GT(trace.size(), 0u);
  const auto fmax = per_core_fmax(m);
  // Per-core fmax matters here: E-cores at their own fmax are not dips.
  ASSERT_LT(summarize_panel(trace, fmax, 0.95).below,
            trace.fraction_below(m.max_ghz(), 0.95));
  expect_matches_trace_queries(trace, fmax);
}

}  // namespace
}  // namespace omv::freqlog
