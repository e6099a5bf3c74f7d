// Example: offline analysis of an archived experiment.
//
//   $ ./analyze_csv <run-matrix.csv>
//
// Reads a RunMatrix CSV (see core/trace_io.hpp; produced by
// io::save_run_matrix or any tool emitting "run,rep,time" rows), prints
// the full statistical characterization — per-run summaries, variance
// decomposition, outliers, modality, autocorrelation-based periodic-noise
// detection — and the mitigation advice for an assumed unbound
// configuration. When no file is given, a demo matrix is generated.

#include <cstdio>
#include <sstream>

#include "core/advisor.hpp"
#include "core/autocorrelation.hpp"
#include "core/characterize.hpp"
#include "core/outliers.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "core/trace_io.hpp"

namespace {

omv::RunMatrix demo_matrix() {
  // A synthetic "unpinned-looking" experiment: base 100 us, a slow run,
  // a periodic disturbance every 10 reps, rare heavy-tail spikes.
  omv::Rng rng(2024);
  omv::RunMatrix m;
  for (int r = 0; r < 10; ++r) {
    std::vector<double> reps;
    for (int k = 0; k < 100; ++k) {
      double t = 100.0 + rng.normal(0.0, 0.8);
      if (r == 6) t += 12.0;
      if (k % 10 == 0) t += 6.0;
      if (rng.bernoulli(0.03)) t += rng.pareto(30.0, 1.6);
      reps.push_back(t);
    }
    m.add_run(std::move(reps));
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omv;

  RunMatrix m = argc > 1 ? io::load_run_matrix(argv[1]) : demo_matrix();
  if (argc <= 1) {
    std::printf("(no input file — analyzing a generated demo matrix; pass "
                "a 'run,rep,time' CSV to analyze your own)\n\n");
  }

  report::Table t({"run #", "mean", "min", "max", "cv"});
  for (std::size_t r = 0; r < m.runs(); ++r) {
    const auto s = m.run_summary(r);
    t.add_row({std::to_string(r + 1), report::fmt_fixed(s.mean, 2),
               report::fmt_fixed(s.min, 2), report::fmt_fixed(s.max, 2),
               report::fmt_fixed(s.cv, 4)});
  }
  std::printf("%s\n", t.render().c_str());

  const auto vc = m.variance_components();
  std::printf("variance split: %.1f%% between-run / %.1f%% within-run "
              "(F=%.2f, p=%.3g)\n",
              vc.icc * 100.0, (1.0 - vc.icc) * 100.0, vc.f_statistic,
              vc.p_value);

  const auto flat = m.flatten();
  const auto out = stats::tukey_outliers(flat, 3.0);
  std::printf("far-out outliers: %zu of %zu reps (%s tail)\n", out.count(),
              flat.size(), stats::tail_name(out.tail));

  // Periodic disturbance? Check each run's repetition series.
  std::size_t periodic_runs = 0;
  std::size_t detected_lag = 0;
  for (std::size_t r = 0; r < m.runs(); ++r) {
    const auto p = stats::dominant_period(m.run(r), 40);
    if (p.significant) {
      ++periodic_runs;
      detected_lag = p.lag;
    }
  }
  if (periodic_runs > m.runs() / 2) {
    std::printf("periodic disturbance: every ~%zu repetitions (in %zu/%zu "
                "runs) — a fixed-interval noise source\n",
                detected_lag, periodic_runs, m.runs());
  } else {
    std::printf("no consistent periodic disturbance detected\n");
  }

  const auto ch = characterize(m);
  std::printf("signature: %s\n\n", ch.to_string().c_str());

  // Mitigation advice, assuming the runs came from an unbound team on a
  // Vera-like node (adjust ObservedConfig for your setup).
  advisor::ObservedConfig obs;
  obs.n_threads = 16;
  obs.pinned = false;
  const auto advice =
      advisor::advise(topo::Machine::vera(), ch, obs);
  std::printf("%s\n", advice.summary.c_str());
  for (const auto& r : advice.recommendations) {
    std::printf("  * %s\n", r.action.c_str());
  }
  return 0;
}
