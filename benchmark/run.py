#!/usr/bin/env python3
"""omnivar benchmark: four full-protocol campaign workloads, measured from
outside, with a correctness gate. See benchmark/README.md.

  python3 benchmark/run.py [--seed N] [--out DIR] [--trace] [--runs R]
      a full set: R runs of every workload, statistics across the runs
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      one run of one workload; the last stdout line is the JSON result
  python3 benchmark/run.py --smoke
      one short run of every workload under OMNIVAR_QUICK=1
  python3 benchmark/run.py --compare OLD NEW
      regression verdicts between two sets: each a full set's results.json
      or a directory of one-run results
  python3 benchmark/run.py --update-golden
      re-record benchmark/golden/*.sha256 from the current build

Every metric prints as "workload metric value unit". The exit code is 0
only when every run built, ran and passed the correctness gate.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import BenchError, E2E, WORKLOADS  # noqa: E402


def benchmark_spec():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_line(workload, name, value, unit):
    return "%s %s %r %s" % (workload, name, value, unit)


def write_json(path, data):
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def one_run(args):
    """One run of one workload; the JSON result is the last stdout line."""
    if args.trace:
        result = layers.trace_run(
            args.workload, args.seed,
            os.path.join(args.out, "trace.%s.json" % args.workload))
    else:
        result = workloads.run_workload(args.workload, args.seed,
                                        args.seconds, args.smoke)
    result["provenance"] = workloads.provenance()
    write_json(os.path.join(args.out, "%s.seed%d%s.json" % (
        args.workload, args.seed, ".trace" if args.trace else "")), result)
    for problem in result["problems"]:
        print("FAILED %s: %s" % (args.workload, problem), file=sys.stderr)
    for name, m in result["metrics"].items():
        print(metric_line(args.workload, name, m["value"], m["unit"]))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def full_set(args):
    """R runs of every workload (seeds seed, seed+1, ...), then statistics
    across the runs; --trace adds one traced run per workload."""
    runs = {w: [] for w in WORKLOADS}
    for w in WORKLOADS:
        for r in range(args.runs):
            result = workloads.run_workload(w, args.seed + r, args.seconds,
                                            args.smoke)
            runs[w].append(result)
            print("# %s run %d/%d seed %d: %s" % (
                w, r + 1, args.runs, args.seed + r,
                "ok" if result["correct"] else "FAILED"), flush=True)
    problems = ["%s seed %d: %s" % (w, r["seed"], p)
                for w in runs for r in runs[w] for p in r["problems"]]
    # The concurrency and cache byte-identity contract: every paper-*
    # run, whatever its scheduler or cache state, yields the same bytes.
    paper = [r["reference"]
             for w in runs for r in runs[w] if w.startswith("paper-")]
    if any(p != paper[0] for p in paper):
        problems.append("paper-cold, paper-serial and paper-warm outputs "
                        "are not byte-identical")
    traced = {}
    if args.trace:
        platforms = layers.probe_platforms(
            args.seed, os.path.join(args.out, "trace.platforms.json"))
        for w in WORKLOADS:
            traced[w] = layers.trace_run(
                w, args.seed, os.path.join(args.out, "trace.%s.json" % w),
                platforms)
            problems += ["%s traced: %s" % (w, p)
                         for p in traced[w]["problems"]]

    summary = {}
    for w in WORKLOADS:
        summary[w] = {}
        for name, unit, _ in E2E:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            summary[w][name] = dict(stats.summarize(values, args.seed),
                                    unit=unit)
            print(metric_line(w, name, summary[w][name]["median"], unit))
    for w in traced:
        for name, m in traced[w]["metrics"].items():
            print(metric_line(w, name, m["value"], m["unit"]))
    print("# workload metric: median [q1, q3] rel_iqr cv ci95 n")
    for w in summary:
        for name, s in summary[w].items():
            print("# %s %s: %.6g [%.6g, %.6g] %.4f %.4f [%.6g, %.6g] %d" % (
                w, name, s["median"], s["q1"], s["q3"], s["rel_iqr"],
                s["cv"], s["ci95"][0], s["ci95"][1], s["n"]))
    write_json(os.path.join(args.out, "results.json"), {
        "provenance": workloads.provenance(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
        "summary": summary,
        "per_layer": {w: traced[w]["metrics"] for w in traced},
        "correct": not problems,
    })
    for p in problems:
        print("FAILED " + p, file=sys.stderr)
    return 0 if not problems else 1


def load_runs(path):
    """workload -> untraced run results, from a full set's results.json or
    from a directory of one-run results (W.seedN.json)."""
    if not os.path.isdir(path):
        with open(path) as f:
            return json.load(f)["runs"]
    runs = {}
    for name in sorted(os.listdir(path)):
        if re.fullmatch(r"[a-z-]+\.seed\d+\.json", name):
            with open(os.path.join(path, name)) as f:
                result = json.load(f)
            runs.setdefault(result["workload"], []).append(result)
    return runs


def compare(old_path, new_path):
    """Per workload and end-to-end metric: ok, worse, better or unresolved
    against the bound in BENCHMARK.json. Exit 1 when any is worse."""
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    old = load_runs(old_path)
    new = load_runs(new_path)
    worse = False
    for w in WORKLOADS:
        for name, _, better in E2E:
            a = [r["metrics"][name]["value"] for r in old[w]]
            b = [r["metrics"][name]["value"] for r in new[w]]
            verdict = stats.check_bound(a, b, bounds[name], better)
            worse |= verdict == "worse"
            change = stats.worsening(statistics.median(a),
                                     statistics.median(b), better)
            print("%-15s %-12s %-10s %+.2f%% (bound %.0f%%)" % (
                w, name, verdict, 100 * change, 100 * bounds[name]))
    return 1 if worse else 0


def update_golden():
    for workload in ("paper-cold", "fanout-sharded"):
        run = workloads.Run(workload, workloads.DEFAULT_SEED)
        try:
            run.reference = None
            workloads.measure(run, 0)
            if run.problems:
                raise BenchError("; ".join(run.problems))
            workloads.write_golden(run.golden_name(), run.reference)
        finally:
            run.close()
    return 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="measured time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--out", default=os.path.join(workloads.BUILD, "results"))
    p.add_argument("--runs", type=int, default=5,
                   help="runs per workload in a full set")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--update-golden", action="store_true")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        args.runs, args.seconds, args.trace = 1, 0.0, 0
    elif args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    args.out = os.path.abspath(args.out)
    workloads.build()
    os.makedirs(args.out, exist_ok=True)
    if args.update_golden:
        return update_golden()
    if args.workload:
        return one_run(args)
    return full_set(args)


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so the running omnivar is killed and
    # waited for and the run's work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        print("benchmark: %s" % e, file=sys.stderr)
        sys.exit(1)
