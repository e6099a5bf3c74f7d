"""Self-tests of the benchmark's own machinery (no build needed):

    python3 -m unittest discover benchmark
"""

import json
import os
import re
import statistics
import tempfile
import unittest

import layers
import run
import scenarios
import stats
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

PRESET_TEXT = """# omnivar scenario: demo
name = demo
noise.daemon_rate = 480
noise.kworker_rate_per_cpu = 1.2
noise.irq_rate = 0.6
freq.episode_rate = 0.05
freq_session.episode_rate = 0.25
"""
BASE_RATES = {preset: scenarios.parse_rates(PRESET_TEXT)
              for _, preset in scenarios.BASES}


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        xs = [float(x) for x in range(1, 11)]
        self.assertEqual(stats.quartiles(xs), (2.75, 8.25))
        self.assertAlmostEqual(stats.rel_iqr(xs), 5.5 / 5.5)
        self.assertEqual(stats.quartiles([3.0]), (3.0, 3.0))

    def test_quartiles_are_statistics_quantiles(self):
        xs = [1.0, 7.0, 2.0, 9.5, 4.0, 4.5, 3.0]
        q = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartiles(xs), (q[0], q[2]))

    def test_cv(self):
        self.assertEqual(stats.cv([2.0]), 0.0)
        self.assertAlmostEqual(stats.cv([1.0, 3.0]), 2 ** 0.5 / 2)

    def test_bootstrap_ci_is_seeded_and_brackets_the_median(self):
        xs = [10.0, 10.4, 9.8, 10.1, 10.9, 9.7, 10.2]
        a = stats.bootstrap_ci(xs, seed=7)
        self.assertEqual(a, stats.bootstrap_ci(xs, seed=7))
        self.assertLessEqual(a[0], statistics.median(xs))
        self.assertGreaterEqual(a[1], statistics.median(xs))
        self.assertEqual(stats.bootstrap_ci([4.0], seed=1), (4.0, 4.0))

    def test_summarize_fields(self):
        s = stats.summarize([1.0, 2.0, 3.0, 4.0, 5.0], seed=1)
        self.assertEqual(s["n"], 5)
        self.assertEqual(s["median"], 3.0)
        self.assertEqual(len(s["ci95"]), 2)


class BoundCheckTest(unittest.TestCase):
    TIGHT = [10.0, 10.05, 9.95, 10.02, 9.98]

    def test_within_bound_is_ok(self):
        new = [x * 1.05 for x in self.TIGHT]
        self.assertEqual(stats.check_bound(self.TIGHT, new, 0.1, "lower"),
                         "ok")

    def test_beyond_bound_is_worse(self):
        new = [x * 1.2 for x in self.TIGHT]
        self.assertEqual(stats.check_bound(self.TIGHT, new, 0.1, "lower"),
                         "worse")
        fewer = [x / 1.2 for x in self.TIGHT]
        self.assertEqual(stats.check_bound(self.TIGHT, fewer, 0.1, "higher"),
                         "worse")

    def test_spread_beyond_bound_is_unresolved(self):
        noisy = [7.0, 13.0, 10.0, 8.0, 12.0]
        self.assertGreater(stats.rel_iqr(noisy), 0.1)
        self.assertEqual(stats.check_bound(self.TIGHT, noisy, 0.1, "lower"),
                         "unresolved")
        self.assertEqual(stats.check_bound(noisy, self.TIGHT, 0.1, "lower"),
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        old = [20.0, 26.0, 23.0, 21.0, 25.0]
        new = [10.0, 13.0, 11.5, 10.5, 12.5]
        self.assertEqual(stats.check_bound(old, new, 0.05, "lower"), "better")


class LoadRunsTest(unittest.TestCase):
    def test_directory_of_one_run_results(self):
        with tempfile.TemporaryDirectory() as d:
            for workload, seed in (("paper-cold", 1), ("paper-cold", 2),
                                   ("fanout-sharded", 1)):
                run.write_json(os.path.join(
                    d, "%s.seed%d.json" % (workload, seed)),
                    {"workload": workload, "seed": seed})
            run.write_json(os.path.join(d, "paper-cold.seed1.trace.json"),
                           {"workload": "paper-cold", "seed": 1})
            runs = run.load_runs(d)
        self.assertEqual(sorted(runs), ["fanout-sharded", "paper-cold"])
        self.assertEqual([r["seed"] for r in runs["paper-cold"]], [1, 2])


class RoundSampleTest(unittest.TestCase):
    def test_round_counts_its_fastest_invocation(self):
        summary = {"harnesses": [{"cells_cached": 3, "cells_computed": 0,
                                  "failures": []}]}
        batch = [workloads.Invocation(
            workloads.Sample(wall, cpu, rss, 0, 0), summary, {})
            for wall, cpu, rss in ((0.09, 0.20, 33.0), (0.07, 0.16, 34.5),
                                   (0.08, 0.15, 32.0))]
        s = workloads._sample(batch)
        self.assertEqual((s["wall_s"], s["cpu_s"], s["max_rss_mb"]),
                         (0.07, 0.15, 34.5))
        self.assertEqual((s["cells"], s["invocations"]), (3, 3))


class ScenarioGeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(scenarios.generate(5, BASE_RATES),
                         scenarios.generate(5, BASE_RATES))

    def test_different_seeds_different_bytes(self):
        a = scenarios.generate(5, BASE_RATES)
        b = scenarios.generate(6, BASE_RATES)
        for tag, _ in scenarios.BASES:
            self.assertNotEqual(a[tag], b[tag])

    def test_factors_in_range(self):
        draw = scenarios.generate(9, BASE_RATES)
        for tag, preset in scenarios.BASES:
            self.assertIn("base = " + preset, draw[tag])
            d = scenarios.parse_rates(draw[tag])
            for knob in scenarios.KNOBS:
                base = BASE_RATES[preset][knob]
                self.assertTrue(0.5 * base <= d[knob] <= 2.0 * base)

    def test_parse_rates_rejects_incomplete_presets(self):
        with self.assertRaises(ValueError):
            scenarios.parse_rates("noise.daemon_rate = 1\n")


class MetricFormatTest(unittest.TestCase):
    def setUp(self):
        path = os.path.join(workloads.ROOT, "BENCHMARK.json")
        with open(path) as f:
            self.spec = json.load(f)

    def test_metric_line(self):
        line = run.metric_line("paper-cold", "wall_s", 6.25, "s")
        self.assertEqual(line, "paper-cold wall_s 6.25 s")
        workload, name, value, unit = line.split(" ")
        self.assertRegex(name, NAME)
        self.assertEqual(float(value), 6.25)

    def test_every_name_and_unit_is_well_formed(self):
        names = [m[0] for m in workloads.E2E] + \
            [m[0] for m in layers.per_layer_metrics()] + \
            list(workloads.WORKLOADS)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for _, unit, *_ in workloads.E2E + tuple(layers.per_layer_metrics()):
            self.assertRegex(unit, UNIT)

    def test_benchmark_json_matches_the_code(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.spec["workloads"]],
            list(workloads.WORKLOADS.items()))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.spec["end_to_end"]],
            list(workloads.E2E))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]],
            layers.per_layer_metrics())
        self.assertEqual(len(self.spec["per_layer"]), 112)
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class GoldenTest(unittest.TestCase):
    def test_golden_files_cover_every_artifact(self):
        paper = workloads.load_golden("paper")
        self.assertEqual(sorted(paper), sorted(
            ["stdout"] + [h + ".json" for h in workloads.HARNESSES]))
        fanout = workloads.load_golden(
            "fanout-seed%d" % workloads.DEFAULT_SEED)
        self.assertEqual(sorted(fanout), sorted(
            ["stdout"] + ["%s.gen-%s.json" % (h, tag)
                          for h in workloads.HARNESSES
                          for tag, _ in scenarios.BASES]))


if __name__ == "__main__":
    unittest.main()
