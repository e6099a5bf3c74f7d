#pragma once
// On-disk formats of a frequency panel: the raw trace and its summary.
//
// The trace CSV mirrors core/trace_io's dialect: a "time,core,ghz" header,
// one row per sample with 17-significant-digit doubles (lossless
// round-trip), and strict parsing (trailing garbage or malformed fields
// throw instead of silently truncating a trace).
//
// The panel summary is everything Figs. 6 and 7 report about a trace —
// sample count, min/mean/max GHz, the share of samples below a fraction
// of each core's fmax, the dip-episode count, and that fraction — saved
// as a strict seven-field text record, also with 17-digit doubles.
//
// The result cache stores each fig6/fig7 panel as <hash>.csv (the
// RunMatrix), <hash>.trace.csv (the archived raw trace) and <hash>.panel
// (the summary). A warm hit reads only the summary, so restoring a panel
// never re-parses its trace.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "freqlog/logger.hpp"

namespace omv::freqlog {

/// Writes a trace as "time,core,ghz" CSV.
void write_freq_trace_csv(std::ostream& os, const FreqTrace& trace);
[[nodiscard]] std::string freq_trace_to_csv(const FreqTrace& trace);

/// Parses the CSV produced by write_freq_trace_csv. Sample order is
/// preserved (episode counting is order-sensitive). Throws
/// std::invalid_argument on a bad header, malformed fields, or trailing
/// garbage; tolerates blank lines and CRLF endings. Unlike the run-matrix
/// dialect, '#' lines carry no metadata here and are skipped wholesale by
/// design (a trace's sample count is self-describing).
[[nodiscard]] FreqTrace read_freq_trace_csv(std::istream& is);
[[nodiscard]] FreqTrace freq_trace_from_csv(const std::string& csv);

/// File variants (std::runtime_error on IO failure).
void save_freq_trace(const std::string& path, const FreqTrace& trace);
[[nodiscard]] FreqTrace load_freq_trace(const std::string& path);

/// What Figs. 6 and 7 print about one panel's frequency trace.
struct FreqPanelSummary {
  std::size_t samples = 0;
  double min = 0.0;   ///< extremes().min (GHz)
  double mean = 0.0;  ///< extremes().mean (GHz)
  double max = 0.0;   ///< extremes().max (GHz)
  double below = 0.0;  ///< fraction_below(fmax_per_core, threshold)
  std::size_t episodes = 0;  ///< episode_count(fmax_per_core, threshold)
  double threshold = 0.0;    ///< the fraction of fmax both are taken at
};

/// Summarizes `trace` against per-core fmax at `threshold_fraction`; every
/// field equals the FreqTrace query it names, bit for bit.
[[nodiscard]] FreqPanelSummary summarize_panel(
    const FreqTrace& trace, const std::vector<double>& fmax_per_core,
    double threshold_fraction);

/// The summary record: an "omnivar-freq-panel-v1" line, then one
/// "key=value" line per field in declaration order, every line ending in
/// '\n'.
[[nodiscard]] std::string panel_summary_to_text(const FreqPanelSummary& s);

/// Parses a record written by panel_summary_to_text. Strict: throws
/// std::invalid_argument on a bad header, a missing, reordered or
/// duplicated key, a malformed or non-finite value, a truncated line,
/// trailing bytes, or a threshold other than `expected_threshold`.
[[nodiscard]] FreqPanelSummary panel_summary_from_text(
    const std::string& text, double expected_threshold);

/// File variants: save commits atomically (site "sidecar"); load throws
/// std::runtime_error when the file cannot be read.
void save_panel_summary(const std::string& path, const FreqPanelSummary& s);
[[nodiscard]] FreqPanelSummary load_panel_summary(const std::string& path,
                                                  double expected_threshold);

}  // namespace omv::freqlog
