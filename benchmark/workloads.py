"""Builds omnivar, runs the four campaign workloads and gates their outputs.

The program is measured only from outside: every number here comes from
timing whole omnivar processes and reading their rusage (CPU time, peak
RSS), which benchmark/launch reports for each process on its own.
"""

import collections
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import scenarios

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, "build-bench")
WORK = os.path.join(BUILD, "work")
OMNIVAR = os.path.join(BUILD, "bench", "omnivar")
TOOLS_BUILD = os.path.join(BUILD, "tools")
PROBE = os.path.join(TOOLS_BUILD, "layer_probe")
LAUNCH = os.path.join(TOOLS_BUILD, "launch")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

# The 12 deterministic harnesses, named one by one so a harness added later
# does not silently join the workload.
HARNESSES = (
    "ablation_noise", "ext_chunk_sweep", "ext_taskbench",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "table1", "table2",
)

WORKLOADS = {
    "paper-cold": "headline: full-protocol paper campaign, cold cache, "
                  "cells spread over the cell scheduler's workers",
    "paper-serial": "the same campaign on one thread with no scheduler: the "
                    "plain single-threaded compute baseline",
    "paper-warm": "the same selection re-run against its filled cache: only "
                  "cache probe/load, artifact writes and process start",
    "fanout-sharded": "one process over four seed-generated scenarios, runs "
                      "sharded over workers: the sim query layer at varied "
                      "event density",
}

# (name, unit, better) of every end-to-end metric, in report order.
E2E = (
    ("wall_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
)

DEFAULT_SEED = 1
SETUP_BATCH = 20
WARM_BATCH = 20
INVOCATION_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 800


class BenchError(Exception):
    """A failure that makes the run's result meaningless."""


def workers():
    return min(4, len(os.sched_getaffinity(0)))


def _run_logged(argv, log):
    log.write("$ " + " ".join(argv) + "\n")
    log.flush()
    try:
        r = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                           cwd=ROOT, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(argv))
    if r.returncode != 0:
        raise BenchError("failed (exit %d): %s; see %s"
                         % (r.returncode, " ".join(argv), log.name))


def cmake_cache(build_dir):
    """KEY -> value of a CMakeCache.txt."""
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep and not line.startswith(("#", "//")):
                values[key.partition(":")[0]] = value
    return values


def build():
    """Builds omnivar (Release, tests and examples off) into build-bench/
    and the benchmark tools (launcher, layer probe) against it."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no omnivar source tree at " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(workers())
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            _run_logged(["cmake", "-S", ROOT, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DOMNIVAR_BUILD_TESTS=OFF",
                         "-DOMNIVAR_BUILD_EXAMPLES=OFF",
                         "-DOMNIVAR_TSAN=OFF"], log)
        cache = cmake_cache(BUILD)
        if cache.get("CMAKE_BUILD_TYPE") != "Release" or \
                cache.get("OMNIVAR_TSAN", "OFF").upper() not in ("OFF", "0",
                                                                 "FALSE"):
            raise BenchError("%s is not a plain Release build; remove it"
                             % BUILD)
        _run_logged(["cmake", "--build", BUILD, "--target", "omnivar",
                     "-j", jobs], log)
        if not os.path.isfile(os.path.join(TOOLS_BUILD, "CMakeCache.txt")):
            _run_logged(["cmake", "-S", BENCH_DIR, "-B", TOOLS_BUILD,
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DOMNIVAR_SOURCE_DIR=" + ROOT,
                         "-DOMNIVAR_BUILD_DIR=" + BUILD], log)
        _run_logged(["cmake", "--build", TOOLS_BUILD, "-j", jobs], log)


def provenance():
    cache = cmake_cache(BUILD)
    compiler = {"path": cache.get("CMAKE_CXX_COMPILER")}
    fields = {"CMAKE_CXX_COMPILER_ID": "id",
              "CMAKE_CXX_COMPILER_VERSION": "version"}
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            for line in f:
                for key, field in fields.items():
                    if line.startswith("set(%s " % key):
                        compiler[field] = line.split('"')[1]
    version = subprocess.run([OMNIVAR, "--version"], capture_output=True,
                             text=True, check=True, timeout=30).stdout
    ident = dict(line.split(": ", 1) for line in version.splitlines()
                 if ": " in line)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        commit = r.stdout.strip() if r.returncode == 0 else None
    cpu = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "workers": workers(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "tsan": cache.get("OMNIVAR_TSAN"),
        "isa": ident.get("isa"),
        "engine": ident.get("engine"),
        "git_commit": commit,
        "python": sys.version.split()[0],
    }


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_golden(name):
    """{file: sha256} from golden/<name>.sha256 (sha256sum format)."""
    golden = {}
    with open(os.path.join(GOLDEN_DIR, name + ".sha256")) as f:
        for line in f:
            digest, _, file = line.strip().partition("  ")
            golden[file] = digest
    return golden


def write_golden(name, digests):
    with open(os.path.join(GOLDEN_DIR, name + ".sha256"), "w") as f:
        f.writelines("%s  %s\n" % (digests[file], file)
                     for file in sorted(digests))


class Tracer:
    """Spans in memory, written once as Chrome Trace Event JSON."""

    def __init__(self):
        self.spans = []     # [id, parent id, name, start ns, end ns]

    def record(self, name, start_ns, end_ns, parent):
        span_id = len(self.spans) + 1
        self.spans.append([span_id, parent, name, start_ns, end_ns])
        return span_id

    def begin(self, name, parent):
        return self.record(name, time.monotonic_ns(), None, parent)

    def end(self, span_id):
        self.spans[span_id - 1][4] = time.monotonic_ns()

    def write(self, path):
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": start / 1e3, "dur": (end - start) / 1e3,
            "args": {"id": span_id, "parent": parent},
        } for span_id, parent, name, start, end in self.spans]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# One timed omnivar process.
Sample = collections.namedtuple(
    "Sample", "wall_s cpu_s max_rss_mb start_ns end_ns")


def spawn(argv, cwd, env, stdout_path, stderr_path):
    """Runs argv to completion through the launcher; returns (Sample, exit
    code) with the wall time, CPU time and peak RSS the launcher saw."""
    report = stdout_path + ".rusage"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start_ns = time.monotonic_ns()
        try:
            rc = subprocess.run([LAUNCH, report, "--"] + argv, cwd=cwd,
                                env=env, stdout=out, stderr=err,
                                timeout=INVOCATION_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            raise BenchError("no exit within %d s: %s"
                             % (INVOCATION_TIMEOUT_S, " ".join(argv)))
        end_ns = time.monotonic_ns()
    with open(report) as f:
        wall_ns, user_s, sys_s, rss_kib = f.read().split()
    return Sample(int(wall_ns) / 1e9, float(user_s) + float(sys_s),
                  int(rss_kib) / 1024.0, start_ns, end_ns), rc


def campaign_flags(workload):
    w = str(workers())
    if workload == "paper-serial":
        return ["--cell-jobs", "1", "--jobs", "1"]
    if workload == "fanout-sharded":
        return ["--jobs", w, "--cell-jobs", "1"]
    return ["--cell-jobs", w, "--jobs", "1"]


class Invocation:
    """One checked campaign process."""

    def __init__(self, sample, summary, digests):
        self.sample = sample
        self.summary = summary      # campaign.json
        self.digests = digests      # file -> sha256, "stdout" included

    @property
    def cells(self):
        return sum(h["cells_cached"] + h["cells_computed"]
                   for h in self.summary["harnesses"])

    @property
    def failed_cells(self):
        return sum(len(h["failures"]) for h in self.summary["harnesses"])


class Run:
    """One benchmark run of one workload: its work directory (under
    build-bench/work, removed afterwards), its inputs and its checks."""

    def __init__(self, workload, seed, quick=False, tracer=None):
        if workload not in WORKLOADS:
            raise BenchError("unknown workload %r (one of %s)"
                             % (workload, ", ".join(WORKLOADS)))
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.tracer = tracer
        self.span = None            # parent span of invocations
        self.problems = []
        self.count = 0
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=workload + "-", dir=WORK)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("OMNIVAR_")}
        if quick:
            self.env["OMNIVAR_QUICK"] = "1"
        self.generated = self._generate_scenarios()
        self.scenario_args = []
        if workload == "fanout-sharded":
            for tag, _ in scenarios.BASES:
                self.scenario_args += ["--scenario", self.generated[tag]]
        # file -> sha256 every campaign must reproduce: the golden digests,
        # else those of the run's first campaign.
        self.reference = self._golden()

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _generate_scenarios(self):
        """Writes the seed's scenario files; returns tag -> path. Every
        workload gets them: the layer probe measures the generated
        platforms on every workload."""
        base = {}
        for _, preset in scenarios.BASES:
            text = subprocess.run([PROBE, "preset-text", preset],
                                  capture_output=True, text=True, check=True,
                                  timeout=30).stdout
            base[preset] = scenarios.parse_rates(text)
        paths = {}
        for tag, text in scenarios.generate(self.seed, base).items():
            paths[tag] = os.path.join(self.dir, tag + ".scenario")
            with open(paths[tag], "w") as f:
                f.write(text)
        return paths

    def golden_name(self):
        if self.quick:
            return None
        if self.workload != "fanout-sharded":
            return "paper"
        return "fanout-seed%d" % self.seed if self.seed == DEFAULT_SEED \
            else None

    def _golden(self):
        name = self.golden_name()
        if name is None or not os.path.isfile(
                os.path.join(GOLDEN_DIR, name + ".sha256")):
            return None
        return load_golden(name)

    def selection(self):
        args = []
        for h in HARNESSES:
            args += ["--only", h]
        return args + self.scenario_args

    def invoke(self, label, args, out_dir=None):
        """Runs `omnivar args` (plus --out out_dir); returns (Sample, exit
        code, stdout path)."""
        self.count += 1
        stem = os.path.join(self.dir, "inv%04d" % self.count)
        argv = [OMNIVAR] + args + (["--out", out_dir] if out_dir else [])
        sample, rc = spawn(argv, self.dir, self.env, stem + ".out",
                           stem + ".err")
        if self.tracer is not None:
            self.tracer.record(label, sample.start_ns, sample.end_ns,
                               self.span)
        if rc != 0:
            self.problems.append("%s: omnivar exited %d: %s (stderr: %s.err)"
                                 % (label, rc, " ".join(args), stem))
        return sample, rc, stem + ".out"

    def plan(self):
        """(cells, total cost) of the selection's --plan enumeration."""
        _, rc, out = self.invoke("plan", self.selection() + ["--plan"])
        if rc != 0:
            raise BenchError("; ".join(self.problems))
        with open(out) as f:
            rows = [line.split("\t") for line in f.read().splitlines()]
        return len(rows), sum(float(r[4]) for r in rows)

    def setup_seconds(self):
        """One set-up: the fastest of SETUP_BATCH back-to-back --plan
        invocations (process start, registry, scenario resolution and the
        enumeration pass). On a shared host a CPU runs this same work at
        either of two speeds about 1.45x apart, switching every few tenths
        of a second, so the median of a batch jumps between the two."""
        walls = []
        for _ in range(SETUP_BATCH):
            sample, rc, _ = self.invoke("plan", self.selection() + ["--plan"])
            if rc != 0:
                raise BenchError("; ".join(self.problems))
            walls.append(sample.wall_s)
        return min(walls)

    def campaign(self, label, out_dir, flags=None, cold=True,
                 expect_cells=None):
        """Runs one campaign of the selection into out_dir and checks it.
        Returns an Invocation (None when omnivar failed)."""
        flags = campaign_flags(self.workload) if flags is None else flags
        sample, rc, stdout_path = self.invoke(
            label, self.selection() + flags, out_dir)
        if rc != 0:
            return None
        with open(os.path.join(out_dir, "campaign.json")) as f:
            summary = json.load(f)
        digests = {"stdout": sha256_file(stdout_path)}
        for path in sorted(glob.glob(os.path.join(out_dir, "*.json"))):
            name = os.path.basename(path)
            if name != "campaign.json":
                digests[name] = sha256_file(path)
        inv = Invocation(sample, summary, digests)
        self.check(label, inv, cold, expect_cells)
        return inv

    def check(self, label, inv, cold, expect_cells):
        """The correctness gate for one campaign invocation."""
        if not inv.summary.get("ok"):
            self.problems.append(label + ": campaign.json reports ok=false")
        if inv.failed_cells:
            self.problems.append("%s: %d quarantined cells"
                                 % (label, inv.failed_cells))
        if expect_cells is not None and inv.cells != expect_cells:
            self.problems.append("%s: %d cells, the plan enumerates %d"
                                 % (label, inv.cells, expect_cells))
        key = "cells_computed" if cold else "cells_cached"
        served = sum(h[key] for h in inv.summary["harnesses"])
        if served != inv.cells:
            self.problems.append("%s: only %d of %d cells %s" % (
                label, served, inv.cells, "computed" if cold else "cached"))
        if self.reference is None:
            self.reference = dict(inv.digests)
        elif self.reference != inv.digests:
            diff = sorted(k for k in set(self.reference) | set(inv.digests)
                          if self.reference.get(k) != inv.digests.get(k))
            self.problems.append("%s: outputs differ from the reference: %s"
                                 % (label, ", ".join(diff)))

    def fresh_out(self):
        self.count += 1
        return os.path.join(self.dir, "out%04d" % self.count)


def _sample(invocations):
    """One timed sample from a round's back-to-back invocations of the
    selection: the fastest wall and CPU time, as for a set-up, and the
    largest peak RSS."""
    return {
        "wall_s": min(i.sample.wall_s for i in invocations),
        "cpu_s": min(i.sample.cpu_s for i in invocations),
        "max_rss_mb": max(i.sample.max_rss_mb for i in invocations),
        "cells": invocations[0].cells,
        "invocations": len(invocations),
    }


def measure(run, seconds):
    """Times whole rounds of the workload until `seconds`, counted from
    the start of set-up, would be exceeded (at least one round); returns
    (metrics, samples, setups, attempted, failed).

    A round is one cold campaign. On paper-warm it is WARM_BATCH
    back-to-back re-runs against a cache filled once per run: a single
    re-run lasts under 0.1 s, too short a sample on a shared host.
    A set-up is timed before the first round and after every round, so
    setup_s, their median, samples the whole run.
    """
    t0 = time.perf_counter()
    cells = run.plan()[0]
    setups = [run.setup_seconds()]
    warm_dir = None
    if run.workload == "paper-warm":
        warm_dir = run.fresh_out()
        if run.campaign("fill", warm_dir, expect_cells=cells) is None:
            raise BenchError("; ".join(run.problems))
    samples = []
    attempted = failed = 0
    while True:
        r0 = time.perf_counter()
        if warm_dir is None:
            out = run.fresh_out()
            batch = [run.campaign("cold", out, expect_cells=cells)]
            if run.workload == "fanout-sharded" and not samples and batch[0]:
                # Cached cells must reproduce the cold bytes exactly.
                run.campaign("warm check", out, cold=False,
                             expect_cells=cells)
            shutil.rmtree(out, ignore_errors=True)
        else:
            batch = [run.campaign("warm", warm_dir, cold=False,
                                  expect_cells=cells)
                     for _ in range(WARM_BATCH)]
        done = [inv for inv in batch if inv is not None]
        attempted += cells * len(batch)
        failed += cells * (len(batch) - len(done)) + sum(
            inv.failed_cells for inv in done)
        if done:
            samples.append(_sample(done))
        setups.append(run.setup_seconds())
        now = time.perf_counter()
        if now - t0 + (now - r0) > seconds:
            break
    if not samples:
        raise BenchError("; ".join(run.problems))
    metrics = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cells_per_s": statistics.median(s["cells"] / s["wall_s"]
                                         for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(setups),
    }
    return metrics, samples, setups, attempted, failed


def run_workload(workload, seed, seconds, quick=False):
    """One untraced run: the end-to-end metrics and the correctness
    verdict, as the result dict run.py prints."""
    load_before = os.getloadavg()
    run = Run(workload, seed, quick)
    try:
        metrics, samples, setups, attempted, failed = measure(run, seconds)
        return {
            "workload": workload,
            "seed": seed,
            "correct": not run.problems,
            "problems": run.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _ in E2E},
            "samples": samples,
            "setups": setups,
            "reference": run.reference,
            "loadavg": [load_before, os.getloadavg()],
        }
    finally:
        run.close()
