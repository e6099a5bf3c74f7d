"""Run-to-run statistics for the benchmark.

The benchmark computes its statistics here rather than through the
program's own core/ statistics layer, so the yardstick does not move with
the code under test. Every number is reported the way the paper reports
execution-time variability: R runs, median, quartiles, CV and a percentile
bootstrap CI (Hoefler & Belli, "Scientific Benchmarking of Parallel
Computing Systems", SC'15).
"""

import math
import random
import statistics


def quartiles(xs):
    """First and third quartile as statistics.quantiles(xs, n=4) gives them
    (the 'exclusive' method); a single sample is its own quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def rel_iqr(xs):
    """Interquartile range as a share of the median: the run-to-run spread
    the bounds in BENCHMARK.json are compared against."""
    q1, q3 = quartiles(xs)
    m = statistics.median(xs)
    return (q3 - q1) / abs(m) if m else math.inf


def cv(xs):
    """Coefficient of variation (sample stdev / mean); 0 for one sample."""
    if len(xs) < 2:
        return 0.0
    m = statistics.fmean(xs)
    return statistics.stdev(xs) / abs(m) if m else math.inf


def bootstrap_ci(xs, seed, resamples=2000, level=0.95):
    """Percentile bootstrap CI of the median, deterministic given seed."""
    rng = random.Random(seed)
    n = len(xs)
    meds = sorted(
        statistics.median(rng.choices(xs, k=n)) for _ in range(resamples))
    tail = (1.0 - level) / 2.0
    lo = meds[int(math.floor(tail * (resamples - 1)))]
    hi = meds[int(math.ceil((1.0 - tail) * (resamples - 1)))]
    return lo, hi


def summarize(xs, seed):
    q1, q3 = quartiles(xs)
    lo, hi = bootstrap_ci(xs, seed)
    return {
        "n": len(xs),
        "median": statistics.median(xs),
        "q1": q1,
        "q3": q3,
        "rel_iqr": rel_iqr(xs),
        "cv": cv(xs),
        "ci95": [lo, hi],
    }


def worsening(old_median, new_median, better):
    """Relative change of the median, signed so that positive is worse."""
    change = (new_median - old_median) / abs(old_median)
    return change if better == "lower" else -change


def check_bound(old, new, bound, better):
    """Regression verdict for one metric on one workload.

    'ok' when the new median is no worse than the old by more than bound,
    'worse' when it is. When either side's run-to-run spread exceeds the
    bound the comparison cannot resolve a regression of that size, so the
    verdict is 'unresolved' -- unless every new run beats every old run,
    which is 'better'.
    """
    if max(rel_iqr(old), rel_iqr(new)) > bound:
        if better == "lower":
            all_better = max(new) < min(old)
        else:
            all_better = min(new) > max(old)
        return "better" if all_better else "unresolved"
    worse = worsening(statistics.median(old), statistics.median(new), better)
    return "worse" if worse > bound else "ok"
