"""The localizer's refinement as it was before Levenberg-Marquardt: a
hand-written Nelder-Mead on the profiled SSR, seeded at the best grid cell
with a first step of one grid spacing and stopped when the simplex shrinks
below 1e-8 relative. Kept as the reference whose fit the LM refinement must
match: the grid, the forward model and the rate profiling are the
localizer's own, so the two differ only in how they refine.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from virodyne.localization import (
    SolverConfig,
    _profiled_residual,
    _search_box,
    _unit_model,
)

SIMPLEX_TOL = 1e-8


def _nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray, scale: float,
                 tol: float, max_iter: int) -> tuple[np.ndarray, float, int, bool]:
    """Minimal Nelder-Mead in 3-D; stops when the simplex shrinks below
    `tol` relative to its own center's magnitude (floored at 1)."""
    n = x0.size
    simplex = [x0.copy()]
    for k in range(n):
        v = x0.copy()
        v[k] += scale
        simplex.append(v)
    vals = [f(v) for v in simplex]
    it = 0
    while it < max_iter:
        order = np.argsort(vals)
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        spread = max(np.linalg.norm(v - simplex[0]) for v in simplex[1:])
        ref = max(1.0, float(np.linalg.norm(simplex[0])))
        if spread / ref <= tol:
            return simplex[0], vals[0], it, True
        it += 1
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        refl = centroid + (centroid - worst)
        f_refl = f(refl)
        if vals[0] <= f_refl < vals[-2]:
            simplex[-1], vals[-1] = refl, f_refl
        elif f_refl < vals[0]:
            expd = centroid + 2.0 * (centroid - worst)
            f_exp = f(expd)
            if f_exp < f_refl:
                simplex[-1], vals[-1] = expd, f_exp
            else:
                simplex[-1], vals[-1] = refl, f_refl
        else:
            contr = centroid + 0.5 * (worst - centroid)
            f_con = f(contr)
            if f_con < vals[-1]:
                simplex[-1], vals[-1] = contr, f_con
            else:
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (v - best) for v in simplex[1:]]
                vals = [vals[0]] + [f(v) for v in simplex[1:]]
    return simplex[0], vals[0], it, False


def localize_by_simplex(readings, env, source_kind="steady",
                        config=SolverConfig()):
    """Grid search plus simplex refinement; returns (position, rate, ssr)."""
    readings = list(readings)
    y = np.array([r.concentration for r in readings])
    w = np.array([1.0 / r.sigma**2 for r in readings])
    g = _unit_model(source_kind, env, readings)
    sensor_pts = np.array([r.position.as_array() for r in readings])

    def g_matrix(r0s):
        r0s = np.atleast_2d(r0s)
        d = np.linalg.norm(sensor_pts[None, :, :] - r0s[:, None, :], axis=2)
        return g(np.where(d.min(axis=1)[:, None] < 1e-9, r0s + 1e-9, r0s))

    def objective(r0):
        return float(_profiled_residual(g_matrix(r0), y, w)[1][0])

    lo, hi = _search_box(readings, config)
    n = config.grid_resolution
    axes = [np.linspace(lo[k], hi[k], n) for k in range(3)]
    grid_pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    ssr = _profiled_residual(g_matrix(grid_pts), y, w)[1]
    best = int(np.argmin(ssr))
    scale = float((hi - lo).max()) / max(n - 1, 1)
    pt, val, _, _ = _nelder_mead(objective, grid_pts[best], scale, SIMPLEX_TOL,
                                 config.max_iterations)
    if val > ssr[best]:
        pt = grid_pts[best]
    q, res = _profiled_residual(g_matrix(pt), y, w)
    return pt, float(q[0]), float(res[0])
