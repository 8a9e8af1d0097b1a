"""Reference work that measures how fast the host runs at the moment.

On a shared host the speed of the same code drifts by 20-50% over tens of
seconds with other tenants' load. The benchmark times a fixed piece of
reference work before and after every operation and scales the
operation's time by NOMINAL_S / (their mean), which removes most of that
drift (README.md, "Estimator and calibration"). There are two kinds of
reference work, each resembling one kind of hot path, because the two
respond differently to the host's load: Python loops over small numpy
arrays (every CLI operation) and whole-grid numpy stencils (the fdpde
step). Neither calls the program, so a change to the program cannot move
them.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median time of each reference work on the 2-core host where the
# benchmark was written; calibrated seconds read as seconds on that host.
NOMINAL_S = {"scalar": 0.05, "array": 0.035}


def _simpson(f, a: float, b: float, levels: int = 3) -> float:
    """Composite Simpson with `levels` interval doublings from 16
    intervals. Arrays stay at most 129 points (about 1 KB), so the work
    never grows or trims the heap: the time reflects CPU speed, not page
    faults."""
    xs = np.linspace(a, b, 17)
    fs = f(xs)
    for _ in range(levels):
        mids = 0.5 * (xs[:-1] + xs[1:])
        x2 = np.empty(xs.size + mids.size)
        f2 = np.empty_like(x2)
        x2[0::2], x2[1::2] = xs, mids
        f2[0::2], f2[1::2] = fs, f(mids)
        xs, fs = x2, f2
    h = (b - a) / (xs.size - 1)
    return float(h / 3 * (fs[0] + fs[-1] + 4 * fs[1:-1:2].sum()
                          + 2 * fs[2:-2:2].sum()))


def scalar_work() -> float:
    """For operations made of Python loops over small numpy arrays (all of
    the CLI's operations)."""
    total = 0.0
    for k in range(800):
        d2 = (0.5 + 0.01 * k) ** 2
        total += _simpson(
            lambda t: np.exp(-d2 / (2.0 * np.maximum(t, 1e-9)))
            / np.maximum(t, 1e-9) ** 1.5, 0.0, 60.0)
        for i in range(120):
            total += math.sqrt(i + d2) * 1e-12
    return total


def array_work() -> float:
    """For whole-grid numpy stencils (the fdpde step): explicit diffusion
    steps on a 40 x 30 x 8 grid, about 75 KB per array."""
    c = np.zeros((40, 30, 8))
    c[20, 15, 4] = 1.0
    for _ in range(160):
        p = np.pad(c, 1, mode="edge")
        core = p[1:-1, 1:-1, 1:-1]
        lap = (p[2:, 1:-1, 1:-1] + p[:-2, 1:-1, 1:-1] + p[1:-1, 2:, 1:-1]
               + p[1:-1, :-2, 1:-1] + p[1:-1, 1:-1, 2:] + p[1:-1, 1:-1, :-2]
               - 6.0 * core)
        grad = p[2:, 1:-1, 1:-1] - p[:-2, 1:-1, 1:-1]
        c = c + 0.1 * lap - 0.05 * grad
    return float(c.sum())


KERNELS = {"scalar": scalar_work, "array": array_work}


def measure(kind: str = "scalar") -> float:
    """Seconds the reference work of `kind` takes now."""
    t0 = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float, kind: str = "scalar") -> float:
    """`seconds` as they would read on the reference host, given the times
    of the `kind` reference work just before and just after the
    measurement."""
    return seconds * NOMINAL_S[kind] / (0.5 * (before + after))
