"""Seeded scenario files for the fanout-sharded workload.

Each file starts from a catalog preset and multiplies the four event-rate
knobs the sim layer's cost depends on -- OS-noise density and frequency-dip
density -- by log-uniform factors in [0.5, 2] drawn from the benchmark
seed. The paper pair (Dardel+Vera) is fixed by the paper and takes no seed.
"""

import random

# (metric tag, catalog preset) of the four generated platforms.
BASES = (
    ("noisy", "noisy-cloud"),
    ("dippy", "dvfs-dippy"),
    ("biglittle", "biglittle"),
    ("quiet", "quiet-hpc"),
)
KNOBS = (
    "noise.daemon_rate",
    "noise.kworker_rate_per_cpu",
    "noise.irq_rate",
    "freq.episode_rate",
)


def parse_rates(preset_text):
    """The KNOBS values of a preset printed in the scenario-file format."""
    rates = {}
    for line in preset_text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() in KNOBS:
            rates[key.strip()] = float(value)
    missing = [k for k in KNOBS if k not in rates]
    if missing:
        raise ValueError("preset text lacks " + ", ".join(missing))
    return rates


def exponents(seed):
    """Per platform tag, one exponent u in [-1, 1] per knob (factor 2^u)."""
    rng = random.Random(seed)
    return {tag: [rng.uniform(-1.0, 1.0) for _ in KNOBS] for tag, _ in BASES}


def generate(seed, base_rates):
    """Scenario-file text per platform tag for `seed`.

    base_rates maps each preset name to its parse_rates() dict. The same
    seed always gives the same bytes.
    """
    files = {}
    for tag, preset in BASES:
        lines = [
            "# fanout-sharded platform: %s with seeded event densities"
            % preset,
            "name = gen-" + tag,
            "base = " + preset,
        ]
        for knob, u in zip(KNOBS, exponents(seed)[tag]):
            value = base_rates[preset][knob] * 2.0 ** u
            lines.append("%s = %r" % (knob, value))
        files[tag] = "\n".join(lines) + "\n"
    return files
