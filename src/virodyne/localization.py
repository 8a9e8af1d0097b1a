"""Source localization from an array of concentration readings.

Estimates an unknown source's position and release intensity by minimizing
the weighted squared residual sum((y_i - model(r0, Q)) / sigma_i)^2, which is
the maximum-likelihood objective under Gaussian measurement noise. The
forward model is linear in the release intensity Q, so Q is profiled out in
closed form (variable projection, Golub & Pereyra 1973) and the search runs
over position only: a coarse grid over the search box, then
Levenberg-Marquardt on the profiled residual from the best grid cell, each
iteration one batched kernel call over the point and its six
central-difference neighbours. Refinement can only improve on the grid
optimum. The same stencil gives the Jacobian in (x, y, z, Q) whose
inverse Fisher information is the Cramer-Rao bound reported at the
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channel import Environment, unit_continuous_kernel, unit_instant_kernel
from .core import Position, as_position, seconds
from .errors import ConfigError, SingularPoint, Unidentifiable

_FD_STEP = 1e-6           # central-difference step, relative to max(1, |p_k|)
_STEP_TOL = 1e-8          # LM stops once |step| / max(1, |p|) is this small
_LAMBDA_START, _LAMBDA_MAX = 1e-3, 1e16
_BOX_MARGIN = 0.5         # default search box = sensor bbox grown by this factor


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


def read_readings_csv(path: str) -> list[SensorReading]:
    """Sensor readings CSV with header x,y,z,t,c,sigma; blank and '#' lines
    are skipped. A missing or wrong header, a row of the wrong width and a
    non-numeric cell raise ConfigError; row numbers count the header as
    row 1."""
    header = ["x", "y", "z", "t", "c", "sigma"]
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ConfigError(f"no data in readings file {path}")
    got = [h.strip() for h in lines[0].split(",")]
    if got != header:
        raise ConfigError(
            f"readings header must be {','.join(header)}, got {','.join(got)}"
        )
    readings = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"expected {len(header)} columns on data row {i}")
        try:
            x, y, z, t, c, sigma = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric value on data row {i}") from None
        readings.append(SensorReading(position=(x, y, z), time=t,
                                      concentration=c, sigma=sigma))
    return readings


@dataclass(frozen=True)
class SourceEstimate:
    position: Position
    rate: float
    residual_norm: float
    converged: bool
    iterations: int
    crlb_position_m: float | None = None  # sqrt trace of the position CRLB


@dataclass(frozen=True)
class SolverConfig:
    """Grid search, then Levenberg-Marquardt on the profiled residual for at
    most `max_iterations` iterations (0 returns the grid optimum)."""
    grid_resolution: int = 16
    max_iterations: int = 600
    search_box: tuple[tuple[float, float, float], tuple[float, float, float]] | None = None

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.search_box is not None:
            box = np.asarray(self.search_box, dtype=float)
            if box.shape != (2, 3) or not np.isfinite(box).all():
                raise ValueError("search_box must be two finite 3-vectors (lo, hi)")


def _unit_model(source_kind: str, env: Environment,
                readings: Sequence[SensorReading]
                ) -> Callable[[np.ndarray], np.ndarray]:
    """Per-unit-intensity forward model c_i = Q * g_i(r0), batched: maps G
    candidate positions (G, 3) to the (G, S) matrix of every reading's g_i.
    Sources emit from t = 0; a steady source is the continuous one at
    tau = inf, which the kernel refuses in still air between walls."""
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
        return tuple(np.asarray(b, dtype=float) for b in config.search_box)
    pts = np.array([r.position.as_array() for r in readings])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    extent = np.maximum(hi - lo, 1e-6)
    return lo - _BOX_MARGIN * extent, hi + _BOX_MARGIN * extent


def _stencil(g_matrix: Callable[[np.ndarray], np.ndarray], p: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """g at p (S,) and its central-difference gradient dg/dp (S, 3), from one
    batched model call over p and its six neighbours p +- h_k e_k."""
    h = _FD_STEP * np.maximum(1.0, np.abs(p))
    pts = np.tile(p, (7, 1))
    pts[1::2] += np.diag(h)
    pts[2::2] -= np.diag(h)
    rows = g_matrix(pts)
    span = (pts[1::2] - pts[2::2]).diagonal()  # 2h as the floats hold it
    return rows[0], ((rows[1::2] - rows[2::2]) / span[:, None]).T


class _Fit(NamedTuple):  # the profiled fit at one position, from one stencil
    ssr: float
    rate: float
    residual: np.ndarray  # sqrt(w) * (y - rate * g), (S,)
    jac: np.ndarray       # its derivative in position, rate profiled out, (S, 3)
    g: np.ndarray
    dg: np.ndarray


def _profiled_fit(g_matrix: Callable[[np.ndarray], np.ndarray], p: np.ndarray,
                  y: np.ndarray, w: np.ndarray) -> _Fit:
    g, dg = _stencil(g_matrix, p)
    (q,), (ssr,) = _profiled_residual(g[None], y, w)
    # q = <g, y>_w / <g, g>_w, so dq/dp = dg^T w (y - 2 q g) / <g, g>_w where
    # q > 0, and 0 where the clamp holds it at 0 (Golub & Pereyra).
    dq = dg.T @ (w * (y - 2.0 * q * g)) / (w * g * g).sum() if q > 0 else np.zeros(3)
    sw = np.sqrt(w)
    return _Fit(float(ssr), float(q), sw * (y - q * g),
                -sw[:, None] * (np.outer(g, dq) + q * dg), g, dg)


def _levenberg_marquardt(fit_at: Callable[[np.ndarray], _Fit], p: np.ndarray,
                         fit: _Fit, max_iter: int
                         ) -> tuple[np.ndarray, _Fit, int, bool]:
    """Damped Gauss-Newton from p, damping lambda * diag(J^T J), each step
    the minimum-norm least-squares solution of [J; sqrt(lambda D)] s = [-r; 0]:
    zero along directions the residual does not depend on, so a flat
    objective stops where it is. Converged once |s| / max(1, |p|) <=
    _STEP_TOL or lambda passes its cap."""
    lam, it = _LAMBDA_START, 0
    while it < max_iter and lam <= _LAMBDA_MAX:
        it += 1
        damped = np.vstack([fit.jac, np.diag(np.sqrt(lam * (fit.jac**2).sum(axis=0)))])
        step = np.linalg.lstsq(damped, np.r_[-fit.residual, 0.0, 0.0, 0.0], rcond=None)[0]
        if np.linalg.norm(step) <= _STEP_TOL * max(1.0, float(np.linalg.norm(p))):
            return p, fit, it, True
        trial = fit_at(p + step)
        if trial.ssr < fit.ssr:
            p, fit, lam = p + step, trial, lam / 10.0
        else:
            lam *= 10.0
    return p, fit, it, lam > _LAMBDA_MAX


def _fisher_inverse(g: np.ndarray, dg: np.ndarray, rate: float,
                    sigma: np.ndarray) -> np.ndarray | None:
    """Inverse Fisher information (J^T J)^-1 of the Jacobian J of
    (rate * g) / sigma in (x, y, z, Q) (Kay, Fundamentals of Statistical
    Signal Processing I, ch. 3), None where J^T J is numerically singular
    or the inverse is not finite."""
    jac = np.column_stack([rate * dg, g]) / sigma[:, None]
    norms = np.linalg.norm(jac, axis=0)
    if not (norms > 0).all():
        return None
    # Column scaling so position (m) and rate (kg/s) sensitivities compare.
    _, s, vt = np.linalg.svd(jac / norms, full_matrices=False)
    if s[-1] <= s[0] * max(jac.shape) * np.finfo(float).eps:
        return None
    inverse = (vt.T / s**2) @ vt / np.outer(norms, norms)
    return inverse if np.isfinite(inverse).all() else None


def _fold_inside(env: Environment, p: np.ndarray) -> np.ndarray:
    """p mirrored into the region env's boundary declares: z -> |z| above a
    plane at 0, a coordinate folded modulo 2L into [0, L] between walls at 0
    and L. The image model is symmetric about each wall, so the fold moves
    no model value, residual or bound."""
    p = p.copy()
    for axis, length in env.boundary.walls.items():
        if length:
            x = p[axis] % (2.0 * length)
            p[axis] = 2.0 * length - x if x > length else x
        else:
            p[axis] = abs(p[axis])
    return p


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
    Unidentifiable for degenerate geometry, all-zero data (any zero-rate
    source fits those) or a forward model that is zero at every grid
    candidate, as for transient readings all at t <= 0 (no candidate
    explains any reading). Deterministic for a fixed configuration. The
    returned `converged` flag is False when the refinement hits its
    iteration cap; the best point found is still returned. Between walls
    the likelihood has mirrored optima; the one inside the region is
    returned.
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
    sigma = np.array([r.sigma for r in readings])
    w = 1.0 / sigma**2
    g = _unit_model(source_kind, env, readings)
    sensor_pts = np.array([r.position.as_array() for r in readings])

    def g_matrix(r0s: np.ndarray) -> np.ndarray:
        # Guard the singularity at sensor positions: a source exactly on a
        # sensor cannot be scored, so nudge the evaluation point.
        # Squared distances on per-axis (G, S) planes, summed in np.linalg.norm's
        # order, so a nudge is decided as the norm would decide it.
        r0s = np.atleast_2d(r0s)
        dx, dy, dz = (sensor_pts[None, :, k] - r0s[:, k, None] for k in range(3))
        d2 = (dx * dx + dy * dy) + dz * dz
        return g(np.where(np.sqrt(d2.min(axis=1))[:, None] < 1e-9, r0s + 1e-9, r0s))

    lo, hi = _search_box(readings, config)
    axes = [np.linspace(lo[k], hi[k], config.grid_resolution) for k in range(3)]
    grid_pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    g_grid = g_matrix(grid_pts)
    if not g_grid.any():
        raise Unidentifiable("the forward model is zero at every grid candidate (as "
                             "for readings all at t <= 0): no position explains them")
    ssr = _profiled_residual(g_grid, y, w)[1]
    best_pt = grid_pts[int(np.argmin(ssr))]
    start = _profiled_fit(g_matrix, best_pt, y, w)
    final_pt, fit, iters, converged = _levenberg_marquardt(
        lambda p: _profiled_fit(g_matrix, p, y, w), best_pt, start,
        config.max_iterations)
    if fit.ssr > ssr.min():  # refinement never beats the grid optimum
        final_pt, fit = best_pt, start
    fisher_inv = _fisher_inverse(fit.g, fit.dg, fit.rate, sigma)
    return SourceEstimate(
        position=Position.from_array(_fold_inside(env, final_pt)),
        rate=fit.rate,
        residual_norm=math.sqrt(fit.ssr),
        converged=converged,
        iterations=iters,
        crlb_position_m=(None if fisher_inv is None
                         else math.sqrt(float(np.trace(fisher_inv[:3, :3])))),
    )
