"""Concentration fields for airborne release under diffusion and advection.

The field c(r, t) [kg/m^3] produced by instant, continuous, moving, and
distributed sources is evaluated from the free-space Gaussian kernel of the
advection-diffusion equation, extended to reflecting boundaries with the
method of images:

* instant release of mass Q at r0:
      c = Q * (4 pi D tau)^(-3/2) * exp(-|r - r0 - v tau|^2 / (4 D tau))
* continuous release at constant rate Q from a static point, wind included:
  Carslaw & Jaeger's moving point source in the wind's frame (see
  unit_continuous_kernel), Q / (4 pi D d) * erfc(d / (2 sqrt(D tau))) in
  still air; the steady state is its tau -> infinity limit;
* moving sources and time-varying rates: adaptive Simpson quadrature of the
  instant kernel over the emission history;
* superposition over source lists (the equation is linear).

Reflecting boundaries restrict the wind so the image construction stays
exact: a half-space (plane z=0) admits no vertical wind, a rectangular duct
(unbounded x, reflecting y/z walls) admits wind along x only.

Everything here is a pure function of its inputs and safe to call
concurrently; batch evaluation partitions the query across worker threads
with order-independent assembly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import parallel
from .core import (
    Diffusivity,
    Position,
    Velocity,
    as_position,
    as_velocity,
    seconds,
)
from .errors import (
    FieldEvaluationError,
    OutOfRange,
    QuadratureFailure,
    SingularPoint,
    VirodyneError,
)
from .mobility import Trajectory

DEFAULT_QUADRATURE_TOL = 1e-6
MAX_QUADRATURE_LEVELS = 20

_SINGULAR_DIST = 1e-12


# ---------------------------------------------------------------------------
# Environment and sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeSpace:
    """Unbounded domain."""


@dataclass(frozen=True)
class HalfSpaceReflecting:
    """Reflecting ground plane at z = 0; field defined for z >= 0."""


@dataclass(frozen=True)
class RectangularDuctReflecting:
    """Duct running along x with reflecting walls y in [0, width],
    z in [0, height]. The image series is truncated at image_order
    reflections per wall pair."""

    width: float
    height: float
    image_order: int = 10

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("duct width and height must be > 0")
        if self.image_order < 0:
            raise ValueError("image_order must be >= 0")


Boundary = Union[FreeSpace, HalfSpaceReflecting, RectangularDuctReflecting]


@dataclass(frozen=True)
class Environment:
    """Propagation medium: effective diffusivity, constant wind, boundary.

    Air turbulence is represented only through an enlarged effective
    diffusivity supplied by the caller; there is no stochastic turbulence
    model. Space- or time-varying wind is outside the closed-form solvers;
    use the finite-difference solver in :mod:`virodyne.fdpde` for that.
    """

    diffusivity: float
    wind: Velocity = field(default_factory=lambda: Velocity(0.0, 0.0, 0.0))
    boundary: Boundary = field(default_factory=FreeSpace)

    def __post_init__(self):
        d = float(self.diffusivity) if not isinstance(self.diffusivity, Diffusivity) \
            else self.diffusivity.m2_per_s
        Diffusivity(d)  # validates > 0, finite
        object.__setattr__(self, "diffusivity", d)
        object.__setattr__(self, "wind", as_velocity(self.wind))
        b = self.boundary
        if isinstance(b, HalfSpaceReflecting) and self.wind.vz != 0.0:
            raise ValueError(
                "a reflecting half-space requires wind parallel to the plane "
                "(vz = 0); the image construction is exact only then"
            )
        if isinstance(b, RectangularDuctReflecting) and (
            self.wind.vy != 0.0 or self.wind.vz != 0.0
        ):
            raise ValueError("a reflecting duct admits wind along x only")

    @property
    def wind_arr(self) -> np.ndarray:
        return self.wind.as_array()

    @property
    def has_wind(self) -> bool:
        return self.wind.speed > 0.0


class SourceKind(enum.Enum):
    INSTANT = "instant"
    CONTINUOUS = "continuous"


RateLike = Union[float, Callable[[float], float]]


@dataclass(frozen=True)
class SourceSpec:
    """An emission source: instant (mass, kg) or continuous (rate, kg/s).

    A continuous source may carry a trajectory instead of a fixed position,
    and its rate may be a function of time (proportional to symptom severity
    or any other user-supplied profile).
    """

    kind: SourceKind
    strength: RateLike
    position: Position | None = None
    trajectory: Trajectory | None = None
    start_time: float = 0.0

    def __post_init__(self):
        if (self.position is None) == (self.trajectory is None):
            raise ValueError("provide exactly one of position or trajectory")
        if self.position is not None:
            object.__setattr__(self, "position", as_position(self.position))
        st = seconds(self.start_time)
        object.__setattr__(self, "start_time", st)
        if callable(self.strength):
            if self.kind is SourceKind.INSTANT:
                raise ValueError("an instant source needs a numeric mass")
        else:
            s = float(self.strength)
            if not math.isfinite(s) or s < 0:
                raise ValueError(f"source strength must be finite and >= 0, got {s}")
            object.__setattr__(self, "strength", s)

    @classmethod
    def instant(cls, position, mass_kg: float, start_time: float = 0.0) -> "SourceSpec":
        return cls(SourceKind.INSTANT, mass_kg, position=as_position(position),
                   start_time=start_time)

    @classmethod
    def continuous(cls, rate_kg_s: RateLike, position=None,
                   trajectory: Trajectory | None = None,
                   start_time: float = 0.0) -> "SourceSpec":
        pos = as_position(position) if position is not None else None
        return cls(SourceKind.CONTINUOUS, rate_kg_s, position=pos,
                   trajectory=trajectory, start_time=start_time)

    @property
    def is_moving(self) -> bool:
        return self.trajectory is not None

    def rate_at(self, t: float) -> float:
        if self.kind is not SourceKind.CONTINUOUS:
            raise ValueError("rate_at is defined for continuous sources only")
        return self.strength(t) if callable(self.strength) else self.strength

    def point_at(self, t: float) -> np.ndarray:
        if self.trajectory is not None:
            return self.trajectory.point_at(t)
        return self.position.as_array()


@dataclass(frozen=True)
class Scenario:
    """An environment plus the sources emitting into it."""

    environment: Environment
    sources: tuple[SourceSpec, ...]

    def __init__(self, environment: Environment, sources: Iterable[SourceSpec]):
        object.__setattr__(self, "environment", environment)
        object.__setattr__(self, "sources", tuple(sources))


@dataclass(frozen=True)
class FieldQuery:
    """A batch of space-time evaluation points."""

    positions: np.ndarray  # (N, 3), meters
    times: np.ndarray      # (N,), seconds

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        ts = np.atleast_1d(np.asarray(self.times, dtype=float))
        if pos.shape != (ts.size, 3):
            raise ValueError("positions must be (N, 3) matching times (N,)")
        if pos.size and not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if ts.size and (not np.isfinite(ts).all() or (ts < 0).any()):
            raise ValueError("times must be finite and >= 0")
        pos.setflags(write=False)
        ts.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "times", ts)

    def __len__(self) -> int:
        return int(self.times.size)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple]) -> "FieldQuery":
        pos, ts = [], []
        for r, t in pairs:
            pos.append(as_position(r).as_array())
            ts.append(seconds(t))
        if not pos:
            return cls(np.zeros((0, 3)), np.zeros(0))
        return cls(np.vstack(pos), np.array(ts))

    @classmethod
    def from_grid(cls, xs: Sequence[float], ys: Sequence[float],
                  zs: Sequence[float], times: Sequence[float]) -> "FieldQuery":
        """Cartesian product ordered t-major, then x, y, z."""
        axes = [[seconds(t) for t in times], xs, ys, zs]
        tt, xx, yy, zz = np.meshgrid(*(np.asarray(a, dtype=float) for a in axes),
                                     indexing="ij")
        return cls(np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()]), tt.ravel())


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _gauss1d(dx: np.ndarray, four_dt: np.ndarray) -> np.ndarray:
    return np.exp(-(dx * dx) / four_dt) / np.sqrt(math.pi * four_dt)


def _reflected_offsets(length: float, order: int) -> np.ndarray:
    return 2.0 * length * np.arange(-order, order + 1, dtype=float)


def _axis_factor(x: np.ndarray, x0: np.ndarray, four_dt: np.ndarray,
                 boundary: Boundary, axis: int) -> np.ndarray:
    """1-D kernel factor along one axis, including mirror images."""
    if isinstance(boundary, HalfSpaceReflecting) and axis == 2:
        return _gauss1d(x - x0, four_dt) + _gauss1d(x + x0, four_dt)
    if isinstance(boundary, RectangularDuctReflecting) and axis in (1, 2):
        length = boundary.width if axis == 1 else boundary.height
        offs = _reflected_offsets(length, boundary.image_order)[:, None]
        total = _gauss1d(x - (offs + x0), four_dt) + _gauss1d(x - (offs - x0), four_dt)
        return total.sum(axis=0)
    return _gauss1d(x - x0, four_dt)


def unit_instant_kernel(env: Environment, src_points: np.ndarray,
                        obs_points: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Concentration per unit released mass, vectorized over N evaluations.

    src_points and obs_points broadcast against each other as (N, 3) or
    (3,); taus is (N,). Entries with tau <= 0 evaluate to 0 (nothing has
    been emitted yet).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    src = np.broadcast_to(np.atleast_2d(src_points), (taus.size, 3))
    obs = np.broadcast_to(np.atleast_2d(obs_points), (taus.size, 3))
    out = np.zeros(taus.size)
    live = taus > 0
    if not live.any():
        return out
    tau = taus[live]
    four_dt = 4.0 * env.diffusivity * tau
    drifted = src[live] + env.wind_arr[None, :] * tau[:, None]
    val = np.ones(tau.size)
    for axis in range(3):
        val = val * _axis_factor(obs[live, axis], drifted[:, axis], four_dt,
                                 env.boundary, axis)
    out[live] = val
    return out


def image_transforms(env: Environment) -> list[tuple[np.ndarray, np.ndarray]]:
    """Affine maps (flip, offset) sending a source point to each of its
    mirror images: image = flip * p + offset. The identity comes first.
    The maps are read-only rows of _image_stack, built once per boundary."""
    return list(zip(*_image_stack(env.boundary)))


@lru_cache(maxsize=64)
def _image_stack(b: Boundary) -> tuple[np.ndarray, np.ndarray]:
    """Flips and offsets of the image maps as read-only (M, 3) arrays."""
    ident = (np.ones(3), np.zeros(3))
    if isinstance(b, FreeSpace):
        maps = [ident]
    elif isinstance(b, HalfSpaceReflecting):
        maps = [ident, (np.array([1.0, 1.0, -1.0]), np.zeros(3))]
    else:
        maps = []
        for sy in (1.0, -1.0):
            for ny in _reflected_offsets(b.width, b.image_order):
                for sz in (1.0, -1.0):
                    for nz in _reflected_offsets(b.height, b.image_order):
                        flip = np.array([1.0, sy, sz])
                        off = np.array([0.0, ny, nz])
                        maps.append((flip, off))
        # Identity first for singularity checks.
        maps.sort(key=lambda m: 0 if (m[0] == 1.0).all() and (m[1] == 0.0).all() else 1)
    flips, offsets = map(np.array, zip(*maps))
    flips.setflags(write=False)
    offsets.setflags(write=False)
    return flips, offsets


def image_points(env: Environment, src_point: np.ndarray) -> np.ndarray:
    """Explicit mirror-source positions for a point source (primary first)."""
    flips, offsets = _image_stack(env.boundary)
    return flips * np.asarray(src_point, dtype=float) + offsets


# (-1)^k (2k - 1)!! for k = 8 .. 0: the asymptotic series of erfcx in 1 / (2 x^2).
_ERFCX_SERIES = [(-1) ** k * math.prod(range(1, 2 * k, 2)) for k in range(8, -1, -1)]


def _erfcx(x: np.ndarray) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0.

    Below 26 the product is formed from the exact math.erfc (exp(676) is
    still finite); from 26 on, eight terms of the asymptotic series
    erfcx(x) = (1 / (x sqrt(pi))) sum_k (-1)^k (2k - 1)!! / (2 x^2)^k are
    exact to double precision.
    """
    near = x < 26.0
    if near.all():
        return np.exp(x * x) * np.fromiter(map(math.erfc, x.tolist()), float, x.size)
    out = np.empty_like(x)
    out[near] = _erfcx(x[near])
    xf = x[~near]
    out[~near] = np.polyval(_ERFCX_SERIES, 0.5 / (xf * xf)) / (xf * math.sqrt(math.pi))
    return out


def _pair_kernel(d: np.ndarray, v_dot_dr: np.ndarray, tau: np.ndarray,
                 diffusivity: float, speed: float) -> np.ndarray:
    """Per-unit-rate field of one (image source, observer) pair, d > 0 and
    tau > 0 (tau may be inf). With a = v . dr / 2D, b = |v| d / 2D and
    y, x = (d -+ |v| tau) / 2 sqrt(D tau) the bracket is
    e^(a - b) erfc(y) + e^(a + b) erfc(x). Writing erfc(x) = e^(-x^2) erfcx(x)
    gives both terms the factor e^(a - b - y^2) = e^(a + b - x^2) <= e^(a - b)
    <= 1 (as v . dr <= |v| d), so no exponent evaluated is positive."""
    steady = 2.0 * np.exp((v_dot_dr - speed * d) / (2.0 * diffusivity))
    bracket = steady.copy()
    fin = np.isfinite(tau)
    df, vdr, four_dt = d[fin], v_dot_dr[fin], 4.0 * diffusivity * tau[fin]
    drift = speed * tau[fin]
    width = np.sqrt(four_dt)
    y = (df - drift) / width
    damp = np.exp(vdr / (2.0 * diffusivity) - (df * df + drift * drift) / four_dt)
    near = damp * _erfcx(np.abs(y))  # exp(a - b) erfc(|y|)
    far = near if speed == 0.0 else damp * _erfcx((df + drift) / width)
    bracket[fin] = np.where(y >= 0.0, near, steady[fin] - near) + far
    return bracket / (8.0 * math.pi * diffusivity * d)


_BLOCK_PAIRS = 2 ** 13


def unit_continuous_kernel(env: Environment, src_points: np.ndarray,
                           obs_points: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Concentration per unit emission rate of a static source that has
    emitted at a constant rate for tau seconds, vectorized over N
    evaluations and summed over the mirror images of image_transforms(env).

    With dr = r - r0, d = |dr| and wind v, each image contributes
        exp(v . dr / 2D) / (8 pi D d)
        * [exp(-|v| d / 2D) erfc((d - |v| tau) / (2 sqrt(D tau)))
           + exp(|v| d / 2D) erfc((d + |v| tau) / (2 sqrt(D tau)))];
    tau = inf gives the steady kernel exp((v . dr - |v| d) / 2D) / (4 pi D d).
    The exponents are combined before evaluation, so the result is finite
    for any |v| d / D. src_points and obs_points broadcast as in
    unit_instant_kernel. Entries with tau <= 0 are 0; an entry whose
    observer sits on the source itself is +inf (one on a mirror image only
    skips that image, which happens only outside the domain).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    src = np.broadcast_to(np.atleast_2d(src_points), (taus.size, 3))
    obs = np.broadcast_to(np.atleast_2d(obs_points), (taus.size, 3))
    flips, offsets = _image_stack(env.boundary)
    out = np.zeros(taus.size)
    block = max(1, _BLOCK_PAIRS // len(flips))
    for lo in range(0, taus.size, block):
        sl = slice(lo, lo + block)
        dr = obs[sl, None, :] - (src[sl, None, :] * flips + offsets)  # (n, M, 3)
        d = np.sqrt((dr * dr).sum(axis=2))
        tau = taus[sl, None].repeat(len(flips), axis=1)
        live = (tau > 0.0) & (d >= _SINGULAR_DIST)
        kern = np.zeros(d.shape)
        kern[live] = _pair_kernel(d[live], (dr @ env.wind_arr)[live], tau[live],
                                  env.diffusivity, env.wind.speed)
        out[sl] = kern.sum(axis=1)
        out[sl][(taus[sl] > 0.0) & (d[:, 0] < _SINGULAR_DIST)] = np.inf
    return out


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

def _simpson_sum(fs: np.ndarray, h: float) -> float:
    return float(h / 3.0 * (fs[0] + fs[-1] + 4.0 * fs[1:-1:2].sum()
                            + 2.0 * fs[2:-2:2].sum()))


def adaptive_emission_integral(
    f_vec: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = DEFAULT_QUADRATURE_TOL,
    max_levels: int = MAX_QUADRATURE_LEVELS,
) -> float:
    """Integrate f over [a, b] by composite Simpson with interval doubling.

    Converges when the Richardson error estimate |S_2n - S_n| / 15 drops
    below rel_tol relative to the integral; raises QuadratureFailure with
    the best estimate otherwise. Deterministic for fixed inputs.
    """
    if b <= a:
        return 0.0
    n0 = 16
    xs = np.linspace(a, b, n0 + 1)
    fs = f_vec(xs)
    h = (b - a) / n0
    s_prev = _simpson_sum(fs, h)
    err = math.inf
    s = s_prev
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
        scale = max(abs(s), abs(s_prev))
        if scale == 0.0:
            return 0.0
        err = abs(s - s_prev) / 15.0
        if err <= rel_tol * scale:
            return s
        s_prev = s
    raise QuadratureFailure(
        f"emission quadrature did not reach rel_tol={rel_tol} within "
        f"{max_levels} refinements (estimate {s}, error bound {err})",
        estimate=s, error_bound=err,
    )


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def concentration_instant(src: SourceSpec, env: Environment, r, t) -> float:
    """Field of an instant release; 0 before the release time."""
    if src.kind is not SourceKind.INSTANT:
        raise ValueError("concentration_instant expects an instant source")
    t = seconds(t)
    tau = t - src.start_time
    if tau <= 0:
        return 0.0
    r0 = src.point_at(src.start_time)
    obs = as_position(r).as_array()
    val = unit_instant_kernel(env, r0, obs, np.array([tau]))[0]
    return float(src.strength * val)


_ON_SOURCE = "continuous-source field diverges at the source position"


def _static_continuous(src: SourceSpec, env: Environment, r, tau: float) -> float:
    obs = as_position(r).as_array()
    val = unit_continuous_kernel(env, src.position.as_array(), obs, [tau])[0]
    if math.isinf(val):
        raise SingularPoint(_ON_SOURCE)
    return float(src.strength * val)


def concentration_continuous(src: SourceSpec, env: Environment, r, t,
                             quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> float:
    """Field of a continuous source; closed form when static at a constant rate.

    A static constant-rate source, with or without wind, uses
    unit_continuous_kernel (summed over mirror images). A moving source or
    a time-varying rate falls back to adaptive quadrature of the instant
    kernel over the emission history.
    """
    if src.kind is not SourceKind.CONTINUOUS:
        raise ValueError("concentration_continuous expects a continuous source")
    if src.is_moving or callable(src.strength):
        return concentration_moving_source(src, env, r, t, quadrature_tol)
    return _static_continuous(src, env, r, seconds(t) - src.start_time)


def concentration_steady(src: SourceSpec, env: Environment, r) -> float:
    """t -> infinity limit of a static continuous source's field.

    With wind v the steady kernel is
        exp((v . dr - |v| d) / (2 D)) / (4 pi D d),
    which reduces to 1 / (4 pi D d) in still air; mirror images are summed
    for reflecting boundaries. It is unit_continuous_kernel at tau = inf.
    """
    if src.kind is not SourceKind.CONTINUOUS or src.is_moving or callable(src.strength):
        raise ValueError("steady state is defined for static constant-rate sources")
    return _static_continuous(src, env, r, math.inf)


def _emission_quadrature(src: SourceSpec, env: Environment, obs: np.ndarray,
                         t: float, rel_tol: float) -> float:
    a = src.start_time
    if t <= a:
        return 0.0
    if src.trajectory is not None and t > src.trajectory.t_end + 1e-9:
        raise OutOfRange(
            f"trajectory ends at {src.trajectory.t_end} s but the field was "
            f"requested at t={t} s"
        )

    def integrand(ss: np.ndarray) -> np.ndarray:
        taus = t - ss
        if src.trajectory is not None:
            r0s = src.trajectory.points_at(np.clip(ss, src.trajectory.t_start,
                                                   src.trajectory.t_end))
        else:
            r0s = src.position.as_array()
        kern = unit_instant_kernel(env, r0s, obs, taus)
        if callable(src.strength):
            rates = np.array([src.strength(float(s)) for s in ss])
        else:
            rates = src.strength
        return rates * kern

    return adaptive_emission_integral(integrand, a, t, rel_tol)


def concentration_moving_source(src: SourceSpec, env: Environment, r, t,
                                quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> float:
    """Field of a moving (or rate-varying) continuous source.

    Quadrature of the instant kernel over the emission history; the
    trajectory must cover [start_time, t]. A static trajectory reproduces
    concentration_continuous to within the quadrature tolerance.
    """
    if src.kind is not SourceKind.CONTINUOUS:
        raise ValueError("concentration_moving_source expects a continuous source")
    t = seconds(t)
    if t - src.start_time <= 0:
        return 0.0
    obs = as_position(r).as_array()
    return _emission_quadrature(src, env, obs, t, quadrature_tol)


def concentration_multi_source(sources: Iterable[SourceSpec], env: Environment,
                               r, t,
                               quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> float:
    """Superposed field of several sources sharing one environment."""
    total = 0.0
    for src in sources:
        if src.kind is SourceKind.INSTANT:
            total += concentration_instant(src, env, r, t)
        else:
            total += concentration_continuous(src, env, r, t, quadrature_tol)
    return total


def _evaluate_chunk(scenario: Scenario, positions: np.ndarray, times: np.ndarray,
                    quadrature_tol: float
                    ) -> tuple[np.ndarray, list[tuple[int, Exception]]]:
    env = scenario.environment
    out = np.zeros(times.size)
    failures: list[tuple[int, Exception]] = []
    for src in scenario.sources:
        if src.kind is SourceKind.INSTANT:
            taus = times - src.start_time
            r0 = src.point_at(src.start_time)
            out += src.strength * unit_instant_kernel(env, r0, positions, taus)
        elif src.is_moving or callable(src.strength):
            for i in range(times.size):
                try:
                    out[i] += concentration_continuous(
                        src, env, positions[i], times[i], quadrature_tol
                    )
                except VirodyneError as exc:
                    failures.append((i, exc))
        else:
            kern = unit_continuous_kernel(env, src.position.as_array(), positions,
                                          times - src.start_time)
            singular = np.isinf(kern)
            failures += [(int(i), SingularPoint(_ON_SOURCE)) for i in np.flatnonzero(singular)]
            out += src.strength * np.where(singular, 0.0, kern)
    return out, failures


def evaluate_field(query: FieldQuery, scenario: Scenario,
                   quadrature_tol: float = DEFAULT_QUADRATURE_TOL,
                   chunk_size: int = 2048) -> np.ndarray:
    """Evaluate the scenario's field at every query point.

    Pure and order-independent: permuting the query permutes the results.
    Chunks are distributed over worker threads (VIRODYNE_THREADS) and
    reassembled in index order, so results never depend on thread count.
    Point-wise failures (singular points, quadrature breakdowns) are
    collected and raised together as FieldEvaluationError with their query
    indices.
    """
    n = len(query)
    if n == 0:
        return np.zeros(0)

    def worker(_idx: int, sl: slice):
        values, fails = _evaluate_chunk(scenario, query.positions[sl],
                                        query.times[sl], quadrature_tol)
        return values, [(i + sl.start, exc) for i, exc in fails]

    parts = parallel.map_chunks(worker, n, chunk_size)
    failures = [f for _, fails in parts for f in fails]
    if failures:
        raise FieldEvaluationError(failures)
    return np.concatenate([vals for vals, _ in parts])
