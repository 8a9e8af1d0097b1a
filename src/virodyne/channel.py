"""Concentration fields for airborne release under diffusion and advection.

The field c(r, t) [kg/m^3] produced by instant, continuous, moving, and
distributed sources is evaluated from the free-space Gaussian kernel of the
advection-diffusion equation, extended to reflecting boundaries with the
method of images:

* instant release of mass Q at r0:
      c = Q * (4 pi D tau)^(-3/2) * exp(-|r - r0 - v tau|^2 / (4 D tau))
* continuous release at constant rate Q, static or moving, wind included:
  Carslaw & Jaeger's moving point source in the wind's frame (see
  unit_continuous_kernel), Q / (4 pi D d) * erfc(d / (2 sqrt(D tau))) in
  still air, with every erfc taken as exp(-x^2) erfcx(x) and erfcx from
  Cody's rational approximations on whole arrays (_erfcx); the steady
  state is its tau -> infinity limit. A trajectory
  is piecewise linear, and each piece is that closed form seen from the
  point the piece extrapolates to at the observation time, in the wind
  minus the piece's velocity;
* time-varying rates: adaptive Simpson quadrature of the instant kernel
  over the emission history (concentration_moving_source), which is also
  the independent check of the closed forms;
* superposition over source lists (the equation is linear).

Reflecting boundaries have one image-source representation: a boundary
declares its walls (mirrored axis -> wall spacing, image_order) and the
images follow from that alone, (2(2n+1))^2 of them for a duct of
image_order n. The wind must be 0 along every mirrored axis, as the
construction is exact only then. There are two evaluation forms: the
instant kernel separates by axis into a product of per-axis image sums
(_axis_factor), while continuous sources sum over the explicit 3-D images
(image_transforms), because each image needs its own distance. Both take
their (image, evaluation) pairs _BLOCK_PAIRS at a time.

Everything here is a pure function of its inputs. Batch evaluation sums
each source's field over the whole query; concentration_instant,
_continuous, _steady and _multi_source are the same per-source path on one
point.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

import numpy as np

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

# A boundary declares its walls and nothing else about images: `walls` maps
# each mirrored axis to (spacing L, image_order n), walls at 0 and L with n
# reflections kept per wall pair; L = 0, n = 0 is the single plane at 0.

@dataclass(frozen=True)
class FreeSpace:
    """Unbounded domain."""

    walls = {}


@dataclass(frozen=True)
class HalfSpaceReflecting:
    """Reflecting ground plane at z = 0; field defined for z >= 0."""

    walls = {2: (0.0, 0)}


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

    @property
    def walls(self) -> dict[int, tuple[float, int]]:
        return {1: (self.width, self.image_order), 2: (self.height, self.image_order)}


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
        if any(self.wind_arr[axis] != 0.0 for axis in self.boundary.walls):
            raise ValueError(
                "reflecting walls require wind parallel to them (0 along every "
                "mirrored axis); the image construction is exact only then"
            )

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
        """Where the source is at time t. Before its trajectory starts it
        holds the first knot and after it ends the last."""
        if self.trajectory is not None:
            traj = self.trajectory
            return traj.point_at(min(max(t, traj.t_start), traj.t_end))
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

# (pairs, 3) float temporaries of 96 KiB stay under the allocator's default
# mmap threshold (128 KiB in glibc), so blocks reuse heap memory instead of
# faulting in fresh pages on every block.
_BLOCK_PAIRS = 2 ** 12


def _gauss1d(dx: np.ndarray, four_dt: np.ndarray) -> np.ndarray:
    return np.exp(-(dx * dx) / four_dt) / np.sqrt(math.pi * four_dt)


def _reflected_offsets(length: float, order: int) -> np.ndarray:
    return 2.0 * length * np.arange(-order, order + 1, dtype=float)


def _axis_images(b: Boundary) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """The 1-D images of each axis x, y, z as (signs, offsets): a source
    coordinate x0 has one image s * x0 + offset for every sign and offset,
    and an axis without walls has only x0 itself."""
    return [((1.0, -1.0), _reflected_offsets(*b.walls[axis])) if axis in b.walls
            else ((1.0,), np.zeros(1)) for axis in range(3)]


def _axis_factor(x: np.ndarray, x0: np.ndarray, four_dt: np.ndarray,
                 signs: tuple[float, ...], offsets: np.ndarray) -> np.ndarray:
    """1-D kernel factor along one axis, summed over its images."""
    offs = offsets[:, None]
    return sum(_gauss1d(x - (offs + s * x0), four_dt) for s in signs).sum(axis=0)


def unit_instant_kernel(env: Environment, src_points: np.ndarray,
                        obs_points: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Concentration per unit released mass, vectorized over N evaluations.

    The image sum is a product of per-axis image sums, as the Gaussian
    separates by axis.

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
    obs = obs[live]
    images = _axis_images(env.boundary)
    val = np.ones(tau.size)
    block = max(1, _BLOCK_PAIRS // max(len(s) * len(o) for s, o in images))
    for lo in range(0, tau.size, block):
        sl = slice(lo, lo + block)
        for axis, (signs, offsets) in enumerate(images):
            val[sl] = val[sl] * _axis_factor(obs[sl, axis], drifted[sl, axis],
                                             four_dt[sl], signs, offsets)
    out[live] = val
    return out


def image_transforms(env: Environment) -> list[tuple[np.ndarray, np.ndarray]]:
    """Affine maps (flip, offset) sending a source point to each of its
    mirror images: image = flip * p + offset. The identity comes first.
    The maps are read-only rows of _image_stack, built once per boundary."""
    return list(zip(*_image_stack(env.boundary)))


@lru_cache(maxsize=64)
def _image_stack(b: Boundary) -> tuple[np.ndarray, np.ndarray]:
    """Flips and offsets of the image maps as read-only (M, 3) arrays: every
    combination of the per-axis images, in axis order."""
    per_axis = [[(s, o) for s in signs for o in offsets]
                for signs, offsets in _axis_images(b)]
    maps = [tuple(zip(*combo)) for combo in itertools.product(*per_axis)]
    # Identity first for singularity checks.
    maps.sort(key=lambda m: m != ((1.0,) * 3, (0.0,) * 3))
    flips, offsets = map(np.array, zip(*maps))
    flips.setflags(write=False)
    offsets.setflags(write=False)
    return flips, offsets


def image_points(env: Environment, src_point: np.ndarray) -> np.ndarray:
    """Explicit mirror-source positions for a point source (primary first)."""
    flips, offsets = _image_stack(env.boundary)
    return flips * np.asarray(src_point, dtype=float) + offsets


def _cody_table(num: Sequence[float], den: Sequence[float]) -> list[np.ndarray]:
    """Cody's coefficient pairs in the order of his Horner loop, each as one
    complex 0-d array num + i den: the loop starts from num[-1] * z and z
    (the denominator is monic), adds num[i], den[i] and multiplies by z for
    each remaining pair, and ends on the constant terms num[-2], den[-1]."""
    pairs = [(num[-1], 1.0), *zip(num[:-2], den[:-1]), (num[-2], den[-1])]
    return [np.array(complex(a, b)) for a, b in pairs]


# W. J. Cody, Math. Comp. 23 (1969) 631-637, as in netlib specfun CALERF:
# x P4(x^2) / Q4(x^2) = erf(x) on [0, 0.46875], P8(x) / Q8(x) = erfcx(x) on
# (0.46875, 4] and (1/sqrt(pi) - t P5(t) / Q5(t)) / x = erfcx(x) beyond, t = 1/x^2.
_ERF_SMALL = _cody_table(
    (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
     3.20937758913846947e03, 1.85777706184603153e-1),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03))
_ERFCX_MID = _cody_table(
    (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
     2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
     2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03))
_ERFCX_TAIL = _cody_table(
    (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
     1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3))
_INV_SQRT_PI = 5.6418958354775628695e-1


def _rational(z: np.ndarray, table: list[np.ndarray]) -> np.ndarray:
    """p(z) / q(z) of a _cody_table by Horner. p and q ride as the real and
    imaginary parts of one complex array, which halves the numpy calls; as
    z is real, (p + i q) z rounds to exactly p z + i q z, so both parts
    come out as two real Horner loops would give them."""
    zc = z.astype(complex)
    acc = table[0] * zc
    for col in table[1:-1]:
        acc += col
        acc *= zc
    acc += table[-1]
    return acc.real / acc.imag


def _erfcx(x: np.ndarray) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0.

    Cody's three rational approximations (Math. Comp. 23 (1969) 631-637;
    netlib specfun CALERF), each range one boolean selection:
    * x <= 0.46875: exp(x^2) (1 - x P4(x^2) / Q4(x^2)), where the ratio
      is Cody's fit of erf(x) / x and exp(x^2) <= 1.25;
    * 0.46875 < x <= 4: P8(x) / Q8(x), no exp at all;
    * x > 4: (1/sqrt(pi) - t P5(t) / Q5(t)) / x with t = (1/x)^2, which
      cannot overflow; erfcx(inf) = 0.
    Against 40-digit mpmath the relative error is at most 7e-16 on
    [0, inf]. The coefficients are scalars per range, so Horner runs on
    whole arrays with no per-element coefficient lookup, and an element
    takes the same operations whatever else shares the call; empty ranges
    cost only their mask.
    """
    out = np.empty_like(x)
    small = x <= 0.46875
    tail = x > 4.0
    n_small, n_tail = np.count_nonzero(small), np.count_nonzero(tail)
    if n_small:
        xs = x[small]
        z = xs * xs
        out[small] = np.exp(z) * (1.0 - xs * _rational(z, _ERF_SMALL))
    if n_small + n_tail < x.size:
        mid = ~(small | tail)  # NaN falls here and stays NaN
        out[mid] = _rational(x[mid], _ERFCX_MID)
    if n_tail:
        xt = x[tail]
        # Past x ~ 1e154 t underflows to 0 and the series term with it,
        # leaving the exact limit 1 / (x sqrt(pi)), subnormal past 1e308.
        with np.errstate(under="ignore"):
            r = 1.0 / xt
            t = r * r
            out[tail] = (_INV_SQRT_PI - t * _rational(t, _ERFCX_TAIL)) / xt
    return out


def _pair_kernel(d: np.ndarray, v_dot_dr: np.ndarray, tau: np.ndarray,
                 diffusivity: float, speed: float | np.ndarray) -> np.ndarray:
    """Per-unit-rate field of (image source, observer) pairs, d > 0 and
    tau > 0 (tau may be inf), all in one drift v or each in its own (speed
    is |v|, one value or one per pair). With
    a = v . dr / 2D, b = |v| d / 2D and y, x = (d -+ |v| tau) / 2 sqrt(D tau)
    the bracket is e^(a - b) erfc(y) + e^(a + b) erfc(x). Writing
    erfc(x) = e^(-x^2) erfcx(x) gives both terms the factor
    e^(a - b - y^2) = e^(a + b - x^2) <= e^(a - b) <= 1 (as v . dr <= |v| d),
    so no exponent evaluated is positive. In still air (|v| = 0) the two
    terms are equal and one erfcx serves both.

    y and x are p -+ q with p = d / 2 sqrt(D tau) and q = |v| sqrt(tau) / 2
    sqrt(D), both formed from sqrt(tau), so no age above 0 underflows
    them."""
    per_pair = isinstance(speed, np.ndarray)
    a_minus_b = (v_dot_dr - speed * d) / (2.0 * diffusivity)
    bracket = 2.0 * np.exp(a_minus_b)  # the steady bracket, kept where tau = inf
    fin = np.isfinite(tau)
    width = 2.0 * math.sqrt(diffusivity) * np.sqrt(tau[fin])
    p = d[fin] / width
    q = width * ((speed[fin] if per_pair else speed) / (4.0 * diffusivity))
    y = p - q
    # Near tau = 0 (subnormal ages) y^2 overflows: the exponent is -inf and
    # the finite-age terms are exactly 0, as is any exp that underflows.
    with np.errstate(over="ignore", under="ignore"):
        damp = np.exp(a_minus_b[fin] - y * y)
    near = damp * _erfcx(np.abs(y))  # exp(a - b) erfc(|y|)
    far = near if not per_pair and speed == 0.0 else damp * _erfcx(p + q)
    bracket[fin] = np.where(y >= 0.0, near, bracket[fin] - near) + far
    return bracket / (8.0 * math.pi * diffusivity * d)


def _on_path_kernel(tau_lo: np.ndarray, tau_hi: np.ndarray, diffusivity: float,
                    speed: np.ndarray) -> np.ndarray:
    """The d -> 0 limit of K(tau_hi) - K(tau_lo) for 0 < tau_lo < tau_hi:
    (4 pi D)^(-3/2) * integral of s^(-3/2) e^(-c s) ds over [tau_lo, tau_hi],
    c = |v|^2 / 4D, whose antiderivative is -T(s) with
    T(s) = 2 e^(-c s) (1 - sqrt(pi c s) erfcx(sqrt(c s))) / sqrt(s)."""
    def tail(s):
        z = np.sqrt(speed * speed * s / (4.0 * diffusivity))
        return 2.0 * np.exp(-z * z) * (1.0 - math.sqrt(math.pi) * z * _erfcx(z)) / np.sqrt(s)

    return (tail(tau_lo) - tail(tau_hi)) / (4.0 * math.pi * diffusivity) ** 1.5


def unit_continuous_kernel(env: Environment, src_points: np.ndarray,
                           obs_points: np.ndarray, taus: np.ndarray,
                           velocity: np.ndarray | None = None,
                           taus_end: np.ndarray | None = None) -> np.ndarray:
    """Concentration per unit emission rate of a source that has emitted at
    a constant rate for tau seconds, vectorized over N evaluations and
    summed over the mirror images of image_transforms(env).

    With dr = r - r0, d = |dr| and drift v, each image contributes
        K(tau) = exp(v . dr / 2D) / (8 pi D d)
        * [exp(-|v| d / 2D) erfc((d - |v| tau) / (2 sqrt(D tau)))
           + exp(|v| d / 2D) erfc((d + |v| tau) / (2 sqrt(D tau)))];
    tau = inf gives the steady kernel exp((v . dr - |v| d) / 2D) / (4 pi D d).
    The exponents are combined before evaluation, so the result is finite
    for any |v| d / D. For a static source v is the wind w.

    A static source (velocity None) keeps a scalar drift: v . dr is one
    matrix-vector product with w and |v| one number for all pairs. Sending
    it through the per-pair drift of a moving source (u = 0) costs about half
    as much again: 0.57 -> 0.88 ms for 3000 still-air free-space pairs,
    1.9 -> 2.9 ms for 4000 windy half-space pairs, 58 -> 92 ms for 200 duct
    points (2 shared cores, numpy 2.4).

    A source moving at constant velocity u (velocity, (N, 3) or (3,)) is,
    seen at the observation time, a static source at the point it occupies
    then (src_points, extrapolated along u) in the wind w - u; a mirror
    image moves with flip * u, so it drifts with w - flip * u (Carslaw &
    Jaeger 1959). Emission that stopped taus_end seconds before the
    observation contributes K(taus) - K(taus_end); K(0) = 0.

    src_points and obs_points broadcast as in unit_instant_kernel. Entries
    with tau <= taus_end are 0. An entry whose observer sits on the source
    while it still emits (taus_end = 0) is +inf; one on a stopped emission
    point takes the d -> 0 limit, and one on a mirror image only skips that
    image, which happens only outside the domain.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    n = taus.size
    src = np.broadcast_to(np.atleast_2d(src_points), (n, 3))
    obs = np.broadcast_to(np.atleast_2d(obs_points), (n, 3))
    vel = None if velocity is None else np.broadcast_to(np.atleast_2d(velocity), (n, 3))
    ends = None if taus_end is None else np.broadcast_to(np.asarray(taus_end, float), (n,))
    flips, offsets = _image_stack(env.boundary)
    m = len(flips)
    D = env.diffusivity
    out = np.zeros(n)
    block = max(1, _BLOCK_PAIRS // m)
    for lo in range(0, n, block):
        sl = slice(lo, lo + block)
        dr = obs[sl, None, :] - (src[sl, None, :] * flips + offsets)  # (n, M, 3)
        d = np.sqrt((dr * dr).sum(axis=2))
        if vel is None:
            v_dot_dr, speed = dr @ env.wind_arr, env.wind.speed
        else:
            drift = env.wind_arr - vel[sl, None, :] * flips
            v_dot_dr = (dr * drift).sum(axis=2)
            speed = np.sqrt((drift * drift).sum(axis=2))
        def speed_of(pairs):
            return speed if vel is None else speed[pairs]

        tau = taus[sl, None].repeat(m, axis=1)
        end = 0.0 if ends is None else ends[sl, None].repeat(m, axis=1)
        live = (tau > end) & (d >= _SINGULAR_DIST)
        kern = np.zeros(d.shape)
        kern[live] = _pair_kernel(d[live], v_dot_dr[live], tau[live], D, speed_of(live))
        if ends is not None:
            stopped = live & (end > 0.0)
            kern[stopped] -= _pair_kernel(d[stopped], v_dot_dr[stopped], end[stopped],
                                          D, speed_of(stopped))
            np.maximum(kern, 0.0, out=kern)
            on_path = (tau > end) & (end > 0.0) & (d < _SINGULAR_DIST)
            if on_path.any():
                kern[on_path] = _on_path_kernel(end[on_path], tau[on_path], D,
                                                speed_of(on_path))
            end = end[:, 0]
        emitting = taus[sl] > end if ends is None else (taus[sl] > end) & (end == 0.0)
        out[sl] = kern.sum(axis=1)
        out[sl][emitting & (d[:, 0] < _SINGULAR_DIST)] = np.inf
    return out


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

_QUADRATURE_BLOCK = 4096


def adaptive_emission_integral(
    f_vec: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = DEFAULT_QUADRATURE_TOL,
    max_levels: int = MAX_QUADRATURE_LEVELS,
) -> float:
    """Integrate f over [a, b] by composite Simpson with interval doubling.

    Converges when the Richardson error estimate |S_2n - S_n| / 15 stays
    below rel_tol relative to the integral on two successive levels, so two
    coarse levels that agree by chance do not end the search; raises
    QuadratureFailure with the best estimate otherwise. Deterministic for
    fixed inputs. Only running sums are kept (the two end values, the nodes
    added at the last level and all older interior nodes), and each level's
    new nodes are evaluated _QUADRATURE_BLOCK at a time, so memory stays
    bounded however deep the refinement goes.
    """
    if b <= a:
        return 0.0
    n = 16
    fs = f_vec(np.linspace(a, b, n + 1))
    h = (b - a) / n
    ends, odd, even = fs[0] + fs[-1], fs[1:-1:2].sum(), fs[2:-2:2].sum()
    s_prev = float(h / 3.0 * (ends + 4.0 * odd + 2.0 * even))
    err = math.inf
    s = s_prev
    met_before = False
    for _ in range(max_levels):
        # The new nodes are the midpoints of the n current intervals.
        even += odd
        h *= 0.5
        odd = 0.0
        for lo in range(0, n, _QUADRATURE_BLOCK):
            j = np.arange(lo, min(lo + _QUADRATURE_BLOCK, n))
            odd += f_vec(a + (2 * j + 1) * h).sum()
        n *= 2
        s = float(h / 3.0 * (ends + 4.0 * odd + 2.0 * even))
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


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def concentration_instant(src: SourceSpec, env: Environment, r, t) -> float:
    """Field of an instant release; 0 before the release time."""
    if src.kind is not SourceKind.INSTANT:
        raise ValueError("concentration_instant expects an instant source")
    return _field_at(src, env, r, seconds(t))


_ON_SOURCE = "continuous-source field diverges at the source position"
_TRAJECTORY_SLACK = 1e-9
_BLOCK_WINDOWS = 2 ** 16


def _past_trajectory(src: SourceSpec, t: float) -> OutOfRange:
    return OutOfRange(f"trajectory ends at {src.trajectory.t_end} s but the field "
                      f"was requested at t={t} s")


def _trajectory_pieces(traj: Trajectory):
    """The path as constant-velocity pieces: emission window (start, stop),
    reference knot (time, point) and velocity. Before t_start the source
    holds the first knot and after t_end the last, as the quadrature's
    clipping does."""
    ts, ps = traj.times, traj.points
    start = np.concatenate([[-math.inf], ts])
    stop = np.concatenate([ts, [math.inf]])
    ref_t = np.concatenate([ts[:1], ts])
    ref_p = np.vstack([ps[:1], ps])
    vel = np.zeros((ts.size + 1, 3))
    vel[1:-1] = np.diff(ps, axis=0) / np.diff(ts)[:, None]
    return start, stop, ref_t, ref_p, vel


def _moving_unit_field(src: SourceSpec, env: Environment, positions: np.ndarray,
                       times: np.ndarray) -> np.ndarray:
    """Unit-rate field of a constant-rate source on a trajectory: for every
    (point, piece) pair whose emission window [max(start, start_time),
    min(stop, t)] is not empty, one unit_continuous_kernel evaluation of the
    piece's extrapolated position and velocity, blocked over points."""
    start, stop, ref_t, ref_p, vel = _trajectory_pieces(src.trajectory)
    first = np.maximum(start, src.start_time)
    out = np.zeros(times.size)
    rows = max(1, _BLOCK_WINDOWS // first.size)
    for lo in range(0, times.size, rows):
        t = times[lo:lo + rows]
        last = np.minimum(stop, t[:, None])
        i, k = np.nonzero(last > first)
        ti = t[i]
        kern = unit_continuous_kernel(
            env, ref_p[k] + vel[k] * (ti - ref_t[k])[:, None], positions[lo + i],
            ti - first[k], velocity=vel[k], taus_end=ti - last[i, k])
        out[lo:lo + t.size] = np.bincount(i, weights=kern, minlength=t.size)
    return out


def concentration_continuous(src: SourceSpec, env: Environment, r, t,
                             quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> float:
    """Field of a continuous source; closed form at a constant rate.

    A constant-rate source, static or moving, with or without wind, uses
    unit_continuous_kernel (summed over mirror images; a trajectory piece by
    piece). Only a time-varying rate falls back to adaptive quadrature of
    the instant kernel over the emission history, to quadrature_tol.
    """
    if src.kind is not SourceKind.CONTINUOUS:
        raise ValueError("concentration_continuous expects a continuous source")
    return _field_at(src, env, r, seconds(t), quadrature_tol)


def concentration_steady(src: SourceSpec, env: Environment, r) -> float:
    """t -> infinity limit of a static continuous source's field.

    With wind v the steady kernel is
        exp((v . dr - |v| d) / (2 D)) / (4 pi D d),
    which reduces to 1 / (4 pi D d) in still air; mirror images are summed
    for reflecting boundaries. It is unit_continuous_kernel at tau = inf.
    """
    if src.kind is not SourceKind.CONTINUOUS or src.is_moving or callable(src.strength):
        raise ValueError("steady state is defined for static constant-rate sources")
    return _field_at(src, env, r, math.inf)


def concentration_moving_source(src: SourceSpec, env: Environment, r, t,
                                quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> float:
    """Field of a continuous source by quadrature of the instant kernel over
    its emission history, to quadrature_tol.

    The only route for a time-varying rate. For a constant rate,
    concentration_continuous is the exact closed form and this is its
    independent check; the trajectory must cover [start_time, t].
    """
    if src.kind is not SourceKind.CONTINUOUS:
        raise ValueError("concentration_moving_source expects a continuous source")
    t, a = seconds(t), src.start_time
    if t <= a:
        return 0.0
    obs = as_position(r).as_array()
    if src.trajectory is not None and t > src.trajectory.t_end + _TRAJECTORY_SLACK:
        raise _past_trajectory(src, t)

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

    # The integrand has a kink at every knot; integrating between knots
    # keeps the Richardson estimate from converging falsely across one.
    cuts = [a, t]
    if src.trajectory is not None:
        knots = src.trajectory.times
        cuts[1:1] = knots[(knots > a) & (knots < t)].tolist()
    total, bound, failed = 0.0, 0.0, 0
    for lo, hi in zip(cuts, cuts[1:]):
        try:
            total += adaptive_emission_integral(integrand, lo, hi, quadrature_tol)
        except QuadratureFailure as exc:
            total, bound, failed = total + exc.estimate, bound + exc.error_bound, failed + 1
    if failed:
        raise QuadratureFailure(
            f"emission quadrature did not reach rel_tol={quadrature_tol} on {failed} of "
            f"{len(cuts) - 1} pieces (estimate {total}, error bound {bound})",
            estimate=total, error_bound=bound,
        )
    return total


def concentration_multi_source(sources: Iterable[SourceSpec], env: Environment,
                               r, t,
                               quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> float:
    """Superposed field of several sources sharing one environment."""
    total = 0.0
    for src in sources:
        total += _field_at(src, env, r, seconds(t), quadrature_tol)
    return total


def _source_field(src: SourceSpec, env: Environment, positions: np.ndarray,
                  times: np.ndarray, quadrature_tol: float
                  ) -> tuple[np.ndarray, list[tuple[int, Exception]]]:
    """One source's field at each (position, time), and the indices that
    failed. An instant release takes the instant kernel and a callable rate
    quadrature point by point. A constant rate, static or moving, takes the
    closed form; SingularPoint marks the emitting source and OutOfRange a
    time past the end of its trajectory."""
    if src.kind is SourceKind.INSTANT:
        r0 = src.point_at(src.start_time)
        return src.strength * unit_instant_kernel(env, r0, positions,
                                                  times - src.start_time), []
    if callable(src.strength):
        out, failures = np.zeros(times.size), []
        for i in range(times.size):
            try:
                out[i] = concentration_moving_source(src, env, positions[i], times[i],
                                                     quadrature_tol)
            except VirodyneError as exc:
                failures.append((i, exc))
        return out, failures
    late = np.zeros(times.size, dtype=bool)
    if src.trajectory is None:
        kern = unit_continuous_kernel(env, src.position.as_array(), positions,
                                      times - src.start_time)
    else:
        late = (times > src.trajectory.t_end + _TRAJECTORY_SLACK) & (times > src.start_time)
        kern = _moving_unit_field(src, env, positions, times)
    singular = np.isinf(kern) & ~late
    failures = sorted(
        [(int(i), _past_trajectory(src, float(times[i]))) for i in np.flatnonzero(late)]
        + [(int(i), SingularPoint(_ON_SOURCE)) for i in np.flatnonzero(singular)],
        key=lambda f: f[0])
    return src.strength * np.where(late | singular, 0.0, kern), failures


def _field_at(src: SourceSpec, env: Environment, r, t: float,
              quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> float:
    """_source_field at one point; its failure is raised."""
    values, failures = _source_field(src, env, as_position(r).as_array()[None, :],
                                     np.array([t]), quadrature_tol)
    if failures:
        raise failures[0][1]
    return float(values[0])


def evaluate_field(query: FieldQuery, scenario: Scenario,
                   quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> np.ndarray:
    """Evaluate the scenario's field at every query point.

    Pure and order-independent: permuting the query permutes the results.
    Point-wise failures (singular points, quadrature breakdowns) are
    collected, source by source in index order, and raised together as
    FieldEvaluationError with their query indices.
    """
    out = np.zeros(len(query))
    failures: list[tuple[int, Exception]] = []
    for src in scenario.sources:
        values, fails = _source_field(src, scenario.environment, query.positions,
                                      query.times, quadrature_tol)
        out += values
        failures += fails
    if failures:
        raise FieldEvaluationError(failures)
    return out
