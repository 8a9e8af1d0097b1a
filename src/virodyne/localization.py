"""Source localization from an array of concentration readings.

Estimates an unknown source's position and release intensity by minimizing
the weighted squared residual sum((y_i - model(r0, Q)) / sigma_i)^2, which is
the maximum-likelihood objective under Gaussian measurement noise. The
forward model is linear in the release intensity Q, so Q is profiled out in
closed form and the search runs over position only: a coarse grid over the
search box followed by derivative-free simplex refinement seeded at the best
grid cell. Refinement can only improve on the grid optimum.

A diagnostics helper reports the condition number of the numerical Jacobian
of the forward model at a hypothesis, flagging degenerate receiver
geometries (coplanar or duplicated sensors) that cannot identify a 3-D
position plus intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import Environment, unit_continuous_kernel, unit_instant_kernel
from .core import Position, as_position, seconds
from .errors import SingularPoint, Unidentifiable

DEFAULT_CONDITION_THRESHOLD = 1e8


@dataclass(frozen=True)
class SensorReading:
    position: Position
    time: float
    concentration: float
    sigma: float  # measurement noise std, kg/m^3

    def __post_init__(self):
        object.__setattr__(self, "position", as_position(self.position))
        if self.sigma <= 0 or not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite and > 0")
        if not math.isfinite(self.concentration):
            raise ValueError("concentration must be finite")


@dataclass(frozen=True)
class SourceEstimate:
    position: Position
    rate: float
    residual_norm: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class SolverConfig:
    grid_resolution: int = 16
    simplex_tol: float = 1e-8     # relative simplex size at which to stop
    max_iterations: int = 600
    search_box: tuple[tuple[float, float, float], tuple[float, float, float]] | None = None
    box_margin: float = 0.5       # search box = sensor bbox grown by this factor

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if self.simplex_tol <= 0:
            raise ValueError("simplex_tol must be > 0")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


def _unit_model(source_kind: str, env: Environment,
                readings: Sequence[SensorReading]
                ) -> Callable[[np.ndarray], np.ndarray]:
    """Per-unit-intensity forward model c_i = Q * g_i(r0), batched: maps G
    candidate positions (G, 3) to the (G, S) matrix of every reading's g_i.
    Sources emit from t = 0; a steady source is the continuous one at
    tau = inf."""
    if source_kind == "steady":
        kernel, times = unit_continuous_kernel, [math.inf] * len(readings)
    elif source_kind in ("instant", "continuous"):
        kernel = unit_instant_kernel if source_kind == "instant" else unit_continuous_kernel
        times = [seconds(r.time) for r in readings]
    else:
        raise ValueError(f"unknown source kind: {source_kind!r}")
    sensors = np.array([r.position.as_array() for r in readings])

    def g(r0s: np.ndarray) -> np.ndarray:
        r0s = np.atleast_2d(r0s)
        vals = kernel(env, np.repeat(r0s, len(readings), axis=0),
                      np.tile(sensors, (len(r0s), 1)), np.tile(times, len(r0s)))
        if np.isinf(vals).any():
            raise SingularPoint("the forward model diverges at a sensor position")
        return vals.reshape(len(r0s), len(readings))
    return g


def _profiled_residual(g_vals: np.ndarray, y: np.ndarray, w: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Optimal Q >= 0 and the resulting weighted SSR for each candidate
    position, one per row of g_vals (G, S)."""
    denom = (w * g_vals * g_vals).sum(axis=1)
    num = (w * y * g_vals).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.maximum(np.where(denom > 0, num / denom, 0.0), 0.0)
    return q, (w * (y - q[:, None] * g_vals) ** 2).sum(axis=1)


def _search_box(readings: Sequence[SensorReading], config: SolverConfig
                ) -> tuple[np.ndarray, np.ndarray]:
    if config.search_box is not None:
        lo = np.asarray(config.search_box[0], dtype=float)
        hi = np.asarray(config.search_box[1], dtype=float)
        return lo, hi
    pts = np.array([r.position.as_array() for r in readings])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    extent = np.maximum(hi - lo, 1e-6)
    return lo - config.box_margin * extent, hi + config.box_margin * extent


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


def _geometry_rank(readings: Sequence[SensorReading]) -> int:
    pts = np.array([r.position.as_array() for r in readings])
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s.size == 0 or s[0] < 1e-12:
        return 0
    return int((s > 1e-9 * s[0]).sum())


def localize(
    readings: Sequence[SensorReading],
    env: Environment,
    source_kind: str = "steady",
    config: SolverConfig = SolverConfig(),
) -> SourceEstimate:
    """Maximum-likelihood estimate of source position and release intensity.

    Needs at least four readings at non-coplanar sensor positions; raises
    Unidentifiable for degenerate geometry or all-zero data (any zero-rate
    source fits those). Deterministic for a fixed configuration. The
    returned `converged` flag is False when the simplex refinement hits its
    iteration cap; the best point found is still returned.
    """
    readings = list(readings)
    if len(readings) < 4:
        raise Unidentifiable(
            f"need >= 4 readings for position + intensity, got {len(readings)}"
        )
    if _geometry_rank(readings) < 3:
        raise Unidentifiable("sensor positions are coplanar (or worse)")
    y = np.array([r.concentration for r in readings])
    if np.abs(y).max() == 0.0:
        raise Unidentifiable("all readings are zero; any zero-rate source fits")
    w = np.array([1.0 / r.sigma**2 for r in readings])
    g = _unit_model(source_kind, env, readings)
    sensor_pts = np.array([r.position.as_array() for r in readings])

    def g_matrix(r0s: np.ndarray) -> np.ndarray:
        # Guard the singularity at sensor positions: a source exactly on a
        # sensor cannot be scored, so nudge the evaluation point.
        r0s = np.atleast_2d(r0s)
        d = np.linalg.norm(sensor_pts[None, :, :] - r0s[:, None, :], axis=2)
        return g(np.where(d.min(axis=1)[:, None] < 1e-9, r0s + 1e-9, r0s))

    def objective(r0: np.ndarray) -> float:
        return float(_profiled_residual(g_matrix(r0), y, w)[1][0])

    lo, hi = _search_box(readings, config)
    n = config.grid_resolution
    axes = [np.linspace(lo[k], hi[k], n) for k in range(3)]
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    grid_pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    ssr = _profiled_residual(g_matrix(grid_pts), y, w)[1]
    best_idx = int(np.argmin(ssr))
    best_pt = grid_pts[best_idx]
    best_val = float(ssr[best_idx])
    scale = float((hi - lo).max()) / max(n - 1, 1)
    refined, f_ref, iters, converged = _nelder_mead(
        objective, best_pt, scale, config.simplex_tol, config.max_iterations
    )
    if f_ref <= best_val:
        final_pt, final_val = refined, f_ref
    else:  # simplex never beats the grid optimum
        final_pt, final_val = best_pt, best_val
    q, res = _profiled_residual(g_matrix(final_pt), y, w)
    return SourceEstimate(
        position=Position.from_array(final_pt),
        rate=float(q[0]),
        residual_norm=math.sqrt(res[0]),
        converged=converged,
        iterations=iters,
    )


@dataclass(frozen=True)
class GeometryDiagnostics:
    condition_number: float
    flagged: bool
    threshold: float


def crlb_diagnostics(
    readings: Sequence[SensorReading],
    env: Environment,
    position,
    rate: float,
    source_kind: str = "steady",
    threshold: float = DEFAULT_CONDITION_THRESHOLD,
) -> GeometryDiagnostics:
    """Sensitivity of the receiver array at a hypothesized source.

    Builds the numerical Jacobian of the sigma-weighted forward model with
    respect to (x, y, z, Q) by central differences and reports its condition
    number. A geometry is flagged when that condition number exceeds the
    threshold (locally unidentifiable, e.g. heavily duplicated sensors) or
    when the sensor positions are coplanar, which leaves a mirror-image
    ambiguity even where the Jacobian is locally well conditioned.
    """
    readings = list(readings)
    if not readings:
        raise Unidentifiable("no readings")
    degenerate_geometry = _geometry_rank(readings) < 3
    r0 = as_position(position).as_array()
    g = _unit_model(source_kind, env, readings)
    w = np.array([1.0 / r.sigma for r in readings])

    def model(theta: np.ndarray) -> np.ndarray:
        pos, q = theta[:3], theta[3]
        return w * q * g(pos)[0]

    theta0 = np.concatenate([r0, [float(rate)]])
    steps = np.array([1e-4, 1e-4, 1e-4, max(1e-6, 1e-6 * abs(rate))])
    jac = np.zeros((len(readings), 4))
    for k in range(4):
        dp = np.zeros(4)
        dp[k] = steps[k]
        jac[:, k] = (model(theta0 + dp) - model(theta0 - dp)) / (2 * steps[k])
    # Column scaling so position (m) and rate (kg/s) sensitivities compare.
    norms = np.linalg.norm(jac, axis=0)
    nonzero = norms > 0
    jac_scaled = jac.copy()
    jac_scaled[:, nonzero] /= norms[nonzero]
    if not nonzero.all():
        return GeometryDiagnostics(math.inf, True, threshold)
    cond = float(np.linalg.cond(jac_scaled))
    flagged = (not math.isfinite(cond)) or cond > threshold or degenerate_geometry
    return GeometryDiagnostics(condition_number=cond, flagged=flagged,
                               threshold=threshold)
