#include "cli/hotpath_report.hpp"

#include <stdexcept>
#include <thread>

#include "core/atomic_file.hpp"
#include "core/json_writer.hpp"

namespace omv::cli {
namespace {

const char* compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* build_flavor() {
#if defined(NDEBUG)
  return "optimized";
#else
  return "assertions";
#endif
}

}  // namespace

std::string hotpath_report_json(const HotpathReport& report) {
  if (report.kernels.empty()) {
    throw std::invalid_argument(
        "hotpath_report_json: refusing to render an empty report");
  }
  json::JsonWriter w;
  w.begin_object();
  w.key("schema").value("omnivar-bench-hotpath-v3");
  w.key("quick").value(report.quick);
  w.key("machine").begin_object();
  w.key("sim_machine").value(report.sim_machine);
  w.key("hardware_concurrency")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("compiler").value(compiler_id());
  w.key("build").value(build_flavor());
  // The density-adaptive scan/index cutovers in effect — without these a
  // trajectory point from another build would not be comparable.
  w.key("adaptive_cutover").begin_object();
  w.key("noise_scan_window").value(report.noise_scan_cutover);
  w.key("freq_scan_episodes").value(report.freq_scan_cutover);
  w.end_object();
  w.key("baseline_definition")
      .value("brute-force reference scan (sim/reference.hpp) over the same "
             "stream and query sequence");
  w.end_object();
  bool any_regression = false;
  w.key("kernels").begin_array();
  for (const auto& k : report.kernels) {
    w.begin_object();
    w.key("kernel").value(k.kernel);
    w.key("density").value(k.density);
    w.key("stream_events").value(k.stream_events);
    w.key("optimized_ns_per_op").value(k.optimized_ns);
    if (k.baseline_ns > 0.0) {
      w.key("baseline_ns_per_op").value(k.baseline_ns);
      w.key("speedup").value(k.optimized_ns > 0.0
                                 ? k.baseline_ns / k.optimized_ns
                                 : 0.0);
      w.key("regression").value(k.regression());
      any_regression |= k.regression();
    }
    w.end_object();
  }
  w.end_array();
  w.key("any_regression").value(any_regression);
  w.end_object();
  return w.str();
}

bool write_hotpath_report(const HotpathReport& report,
                          const std::string& path) {
  // Atomic commit: a crashed or ENOSPC'd writer must never leave a torn
  // BENCH_hotpath.json for the CI trajectory checks to choke on.
  try {
    core::atomic_write_file(path, hotpath_report_json(report) + "\n",
                            "hotpath");
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace omv::cli
