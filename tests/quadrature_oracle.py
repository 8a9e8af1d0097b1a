"""The emission quadrature as it was before it kept running sums: every
node and value of the current level is held in memory and each level's
midpoints are evaluated in one call. Kept as the reference that the
bounded-memory version must reproduce; its acceptance rule (two successive
levels under the tolerance) is the current one."""

import math

import numpy as np

from virodyne.errors import QuadratureFailure


def _simpson_sum(fs: np.ndarray, h: float) -> float:
    return float(h / 3.0 * (fs[0] + fs[-1] + 4.0 * fs[1:-1:2].sum()
                            + 2.0 * fs[2:-2:2].sum()))


def adaptive_emission_integral(f_vec, a, b, rel_tol=1e-6, max_levels=20):
    if b <= a:
        return 0.0
    n0 = 16
    xs = np.linspace(a, b, n0 + 1)
    fs = f_vec(xs)
    h = (b - a) / n0
    s_prev = _simpson_sum(fs, h)
    err = math.inf
    s = s_prev
    met_before = False
    for _ in range(max_levels):
        mids = 0.5 * (xs[:-1] + xs[1:])
        fm = f_vec(mids)
        xs2 = np.empty(xs.size + mids.size)
        fs2 = np.empty_like(xs2)
        xs2[0::2], xs2[1::2] = xs, mids
        fs2[0::2], fs2[1::2] = fs, fm
        xs, fs = xs2, fs2
        h *= 0.5
        s = _simpson_sum(fs, h)
        err = abs(s - s_prev) / 15.0
        met = err <= rel_tol * max(abs(s), abs(s_prev))
        if met and met_before:
            return s
        met_before, s_prev = met, s
    raise QuadratureFailure(
        f"emission quadrature did not reach rel_tol={rel_tol} within "
        f"{max_levels} refinements (estimate {s}, error bound {err})",
        estimate=s, error_bound=err,
    )
