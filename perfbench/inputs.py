"""Seeded inputs shared by the workloads.

Everything the library receives is generated here from the workload seed:
the spline twist's knot file, the plane specs, and per-op trial seeds. The
library never sees the workload seed itself.
"""

from __future__ import annotations

import math

import numpy as np

SPLINE_KNOTS = 12


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one use of the workload seed."""
    return np.random.default_rng([seed, *stream])


def trial_seed(seed: int, k: int) -> int:
    """Seed of op k's TrialConfig: distinct for every op of every run."""
    return (seed << 32) | k


def write_spline_knots(seed: int, path) -> None:
    """Write a random monotone twist's knots as `x y` lines of the real chart.

    Chart gaps are drawn from [0.5, 1.5] and normalised, so every piece has
    a chart slope between 1/3 and 3; the touching suite's anchor sampler,
    which wants slopes in [0.05, 20], then accepts its first draw.
    """
    rng = rng_for(seed, 1)
    gx = rng.uniform(0.5, 1.5, SPLINE_KNOTS)
    gy = rng.uniform(0.5, 1.5, SPLINE_KNOTS)
    tx = (np.cumsum(gx / gx.sum()) + rng.random()) % 1.0
    ty = (np.cumsum(gy / gy.sum()) + rng.random()) % 1.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# spline twist for workload seed {seed}\n")
        for a, b in zip(tx, ty):
            fh.write(f"{_real(a)!r} {_real(b)!r}\n")


def _real(theta: float) -> float:
    """Real-chart value of an angle-chart position (0.5 is infinity)."""
    return math.tan(math.pi * float(theta))


def plane_specs(knot_path) -> dict:
    """The plane matrix: classical, two power twists and the spline twist."""
    return {
        "classical": "classical",
        "power-2": "half:power:2",
        "power-1/3": "half:power:" + repr(1.0 / 3.0),
        "spline": f"half:spline:{knot_path}",
    }
