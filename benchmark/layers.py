"""The traced run: per-layer metrics of one workload, from outside.

Campaign-level numbers (cli.*) come from the campaign's own out directory and
campaign.json and from timing every (harness, scenario) unit as its own
omnivar process; module-level numbers come from benchmark/layer_probe,
which times calls into each module's public functions. Every invocation
and probe call is a span in a Chrome Trace Event file.

The traced run never shares a process with the untraced end-to-end runs,
so its extra invocations cannot disturb them.
"""

import hashlib
import os
import shutil
import subprocess

import scenarios
import workloads
from workloads import HARNESSES, BenchError, Run, Tracer, sha256_file

PLATFORMS = ("dardel", "vera") + tuple(tag for tag, _ in scenarios.BASES)

# Metrics derived from campaign outputs and unit timings.
CAMPAIGN_METRICS = (
    ("cli.units", "count"),
    ("cli.cells", "count"),
    ("cli.cache_bytes", "B"),
    ("cli.artifact_bytes", "B"),
    ("cli.peak_rss_mb", "MB"),
    ("cli.unit_cold_s_sum", "s"),
    ("cli.unit_cold_s_max", "s"),
    ("cli.unit_warm_s_sum", "s"),
    ("cli.pool_busy_ratio", "ratio"),
    ("cli.makespan_over_critical", "ratio"),
    ("cli.trace_coverage", "ratio"),
    ("bench_suite.reps", "count"),
    ("bench_suite.reps_per_s", "1/s"),
    ("freqlog.sidecar_bytes", "B"),
)
# Probe metrics measured once per platform (name suffixed ".<platform>").
PLATFORM_METRICS = (
    ("bench_suite.syncbench_rep_us", "us"),
    ("bench_suite.schedbench_rep_us", "us"),
    ("omp_model.begin_run_us", "us"),
    ("omp_model.begin_rep_us", "us"),
    ("omp_model.fork_us", "us"),
    ("omp_model.compute_us", "us"),
    ("omp_model.barrier_us", "us"),
    ("omp_model.for_dynamic_us", "us"),
    ("sim.exec_ns", "ns"),
    ("sim.preemption_delay_ns", "ns"),
    ("sim.mean_factor_ns", "ns"),
    ("sim.elapsed_for_work_ns", "ns"),
    ("scenario.resolve_us", "us"),
    ("scenario.fingerprint_us", "us"),
    ("topo.machine_build_us", "us"),
)
# Probe metrics over the workload's own result cache.
CACHE_METRICS = (
    ("core.run_matrix_load_mb_s", "MB/s"),
    ("core.run_matrix_save_mb_s", "MB/s"),
    ("core.summarize_us", "us"),
    ("core.bootstrap_ci_ms", "ms"),
    ("core.spec_hash_ns", "ns"),
    ("core.atomic_write_us", "us"),
    ("freqlog.trace_load_mb_s", "MB/s"),
    ("freqlog.trace_save_mb_s", "MB/s"),
)
PROBE_TIMEOUT_S = 150


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    return (list(CAMPAIGN_METRICS)
            + [("%s.%s" % (name, p), unit)
               for p in PLATFORMS for name, unit in PLATFORM_METRICS]
            + list(CACHE_METRICS))


def _bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


def _time_units(run, campaign):
    """Times each (harness, scenario) unit as its own cold, then warm,
    serial invocation; checks each unit reproduces its share of the
    campaign's stdout and artifacts. Returns (cold walls, warm walls)."""
    tags = [None]
    if run.workload == "fanout-sharded":
        tags = [t for t, _ in scenarios.BASES]
    cold, warm = [], []
    stdout = hashlib.sha256()
    for h in HARNESSES:
        for tag in tags:
            args = ["--only", h, "--jobs", "1", "--cell-jobs", "1"]
            if tag is not None:
                args += ["--scenario", run.generated[tag]]
            label = "unit %s%s" % (h, "" if tag is None else " @ " + tag)
            out = run.fresh_out()
            s, rc, stdout_path = run.invoke(label + " cold", args, out)
            cold.append(s.wall_s)
            s, _, _ = run.invoke(label + " warm", args, out)
            warm.append(s.wall_s)
            if rc != 0:
                continue
            with open(stdout_path, "rb") as f:
                stdout.update(f.read())
            multi = h + ".json" if tag is None else "%s.gen-%s.json" % (h, tag)
            if sha256_file(os.path.join(out, h + ".json")) != \
                    campaign.digests.get(multi):
                run.problems.append(
                    label + ": artifact differs from the campaign's")
            shutil.rmtree(out, ignore_errors=True)
    if stdout.hexdigest() != campaign.digests["stdout"]:
        run.problems.append(
            "unit stdouts do not concatenate to the campaign's")
    return cold, warm


def _platform_args(run):
    argv = ["--platform", "dardel=dardel", "--platform", "vera=vera"]
    for tag, _ in scenarios.BASES:
        argv += ["--platform", "%s=%s" % (tag, run.generated[tag])]
    return argv


def _probe(run, args, parent):
    """Runs `layer_probe measure args`; returns name -> (value, unit) and
    records each probe call as a span under `parent`."""
    argv = [workloads.PROBE, "measure"] + args + [
        "--scratch", os.path.join(run.dir, "probe")]
    try:
        r = subprocess.run(argv, capture_output=True, text=True,
                           cwd=run.dir, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("layer_probe timed out")
    if r.returncode != 0:
        raise BenchError("layer_probe failed: " + r.stderr.strip())
    values = {}
    for line in r.stdout.splitlines():
        name, value, unit, start, end = line.split("\t")
        values[name] = (float(value), unit)
        run.tracer.record(name, int(start), int(end), parent)
    return values


def probe_platforms(seed, trace_path):
    """The per-platform probe metrics (they take no input from the
    workload), measured once so a full set shares them across its traced
    workloads."""
    tracer = Tracer()
    run = Run("fanout-sharded", seed, tracer=tracer)
    try:
        span = tracer.begin("layer_probe platforms", None)
        values = _probe(run, _platform_args(run), span)
        tracer.end(span)
        tracer.write(trace_path)
        return values
    finally:
        run.close()


def trace_run(workload, seed, trace_path, platforms=None):
    """One traced run: every per-layer metric, written spans included.
    `platforms` is probe_platforms()'s result; without it the run probes
    the platforms itself."""
    tracer = Tracer()
    run = Run(workload, seed, tracer=tracer)
    try:
        root = run.span = tracer.begin(workload, None)
        cells, cost = run.plan()

        out = run.fresh_out()
        if workload == "paper-warm":
            run.campaign("fill", out, expect_cells=cells)
            inv = run.campaign("warm", out, cold=False, expect_cells=cells)
        else:
            inv = run.campaign("cold", out, expect_cells=cells)
        if inv is None:
            raise BenchError("; ".join(run.problems))

        run.span = tracer.begin("units", root)
        cold, warm = _time_units(run, inv)
        tracer.end(run.span)
        run.span = root

        # cli.trace_coverage compares the units against the whole
        # selection run serially.
        if workload == "paper-serial":
            serial_wall = inv.sample.wall_s
        else:
            ref = run.campaign("serial", run.fresh_out(),
                               flags=["--cell-jobs", "1", "--jobs", "1"],
                               expect_cells=cells)
            if ref is None:
                raise BenchError("; ".join(run.problems))
            serial_wall = ref.sample.wall_s

        probe_span = tracer.begin("layer_probe", root)
        cache = os.path.join(out, "cache")
        args = ["--cache", cache]
        if platforms is None:
            args = _platform_args(run) + args
        probed = dict(platforms or {})
        probed.update(_probe(run, args, probe_span))
        tracer.end(probe_span)
        tracer.end(root)

        entries = [os.path.join(cache, n) for n in os.listdir(cache)]
        artifacts = [os.path.join(out, n) for n in os.listdir(out)
                     if n.endswith(".json") and n != "campaign.json"]
        wall = inv.sample.wall_s
        flags = workloads.campaign_flags(workload)
        pool = max(int(n) for n in flags[1::2])
        values = {
            "cli.units": len(inv.summary["harnesses"]),
            "cli.cells": inv.cells,
            "cli.cache_bytes": _bytes(entries),
            "cli.artifact_bytes": _bytes(artifacts),
            "cli.peak_rss_mb": inv.sample.max_rss_mb,
            "cli.unit_cold_s_sum": sum(cold),
            "cli.unit_cold_s_max": max(cold),
            "cli.unit_warm_s_sum": sum(warm),
            "cli.pool_busy_ratio": sum(cold) / (pool * wall),
            "cli.makespan_over_critical": wall / max(cold),
            "cli.trace_coverage": sum(cold) / serial_wall,
            "bench_suite.reps": cost,
            "bench_suite.reps_per_s": cost / sum(cold),
            "freqlog.sidecar_bytes": _bytes(
                e for e in entries if e.endswith(".trace.csv")),
        }
        metrics = {}
        for name, unit in per_layer_metrics():
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
            elif probed.get(name, (None, None))[1] == unit:
                metrics[name] = {"value": probed[name][0], "unit": unit}
            else:
                raise BenchError("layer_probe did not report %s [%s]"
                                 % (name, unit))
        tracer.write(trace_path)
        return {
            "workload": workload,
            "seed": seed,
            "correct": not run.problems,
            "problems": run.problems,
            "attempted": inv.cells,
            "failed": inv.failed_cells,
            "metrics": metrics,
            "trace": trace_path,
        }
    finally:
        run.close()
