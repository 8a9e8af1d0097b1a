"""Concentration fields for airborne release under diffusion and advection.

The field c(r, t) [kg/m^3] produced by instant, continuous, moving, and
distributed sources is evaluated from the free-space Gaussian kernel of the
advection-diffusion equation, extended to reflecting boundaries with the
method of images:

* instant release of mass Q at r0:
      c = Q * (4 pi D tau)^(-3/2) * exp(-|r - r0 - v tau|^2 / (4 D tau))
* continuous release, static or moving, wind included: Carslaw & Jaeger's
  moving point source in the wind's frame (see unit_continuous_kernel),
  Q / (4 pi D d) * erfc(d / (2 sqrt(D tau))) in still air, with every erfc
  taken as exp(-x^2) erfcx(x) and erfcx from Cody's rational approximations
  on whole arrays (_erfcx); the steady state is its tau -> infinity limit.
  A constant or stepped rate is a sum of emission windows, each that closed
  form begun at its start and stopped at its end; a trajectory's pieces are
  each that closed form seen from the point the piece extrapolates to at
  the observation time, in the wind minus the piece's velocity;
* superposition over source lists (the equation is linear).
Only concentration_moving_source, the closed forms' independent check,
integrates the instant kernel by adaptive Simpson quadrature.

A trajectory source stands at its first knot before its path and at its
last after it (mobility.Trajectory's rule) in every route: closed form,
quadrature and fdpde. In still air between walls no steady state exists;
the kernel refuses tau = inf there for emission that has not stopped.

Reflecting boundaries have one image-source representation: a boundary
declares its walls (mirrored axis -> wall spacing) and the images follow
from that alone. The wind must be 0 along every mirrored axis, as the
construction is exact only then. The instant kernel separates by axis into
a product of per-axis image sums (_axis_factor), while continuous sources
sum over the explicit 3-D images (image_transforms), because each image
needs its own distance. Both take their (image, evaluation) pairs
_BLOCK_PAIRS at a time.

Between the two walls of a duct the image sum is exact, not truncated.
Along an axis with walls at 0 and L it is a theta function, which Poisson
summation turns into the cosine series (1/L)[1 + 2 sum_m exp(-D k_m^2 tau)
cos(k_m y) cos(k_m y0)], k_m = m pi / L (Carslaw & Jaeger, Conduction of
Heat in Solids, 1959, ch. 14). Images converge fast for young ages and
modes for old ones, so ages up to tau* = _SPLIT_AGE min(W, H)^2 / D take
images and older ones modes: per axis and per age in the instant kernel,
and in the continuous kernel by splitting each pair's age integral at tau*
(_mode_kernel). A trajectory piece moving across the duct splits later,
at tau0 = _TAIL (max(W, H) / pi)^2 / D: its images move against it, and
of its modes only (0, 0), which does not depend on where the source sits
across the duct, has a closed-form age integral, while past tau0 every
other mode weighs less than exp(-_TAIL). Each side keeps every term down
to exp(-_TAIL) of what it keeps, so all counts depend on the duct's shape
alone. Far from its source a row needs no images at all: mode (m, n) decays
along the duct like exp(-|xi| kappa), kappa = sqrt(u^2 / 4D^2 + k_m^2 +
k_n^2), with xi the axial separation and u the drift along the duct. So a
row not moving across the duct with |xi| >= xi* = _FAR_EDGE sqrt(W H) takes
the modes alone from age 0 (_far_rows), from a table per |xi| block (blocks
double from xi*) that keeps the modes within exp(-_TAIL) of mode (0, 0) at
the block's lower edge. Each dropped mode's age integral is at most its
steady one, so the table's lattice tail bounds what it drops; a row whose
bound exceeds exp(-_TAIL) of what it keeps (a young row, or one whose value
underflows to 0) keeps the split at tau*, as does every row of a block
whose table would hold more modes than that split has images and modes.
A mode's axial integral depends on a row only through its axial key
(xi, drift and the ages lo and hi), which every row of a grid's
cross-section plane shares; so a kernel call groups its rows by key once
and takes that integral once per key and mode, for all its tables in one
pass (_mode_kernel).
The bounds assume every emission point lies inside the region the
boundary declares; check_inside raises OutOfDomain for a point outside, and
the field path calls it on every source.

Everything here is a pure function of its inputs. evaluate_field sums
each source's field over the whole query, the one path for several
sources; concentration_instant, _continuous and _steady are the same
per-source path on one point.
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
    Position,
    Velocity,
    as_position,
    as_velocity,
    seconds,
)
from .errors import (
    FieldEvaluationError,
    OutOfDomain,
    QuadratureFailure,
    SingularPoint,
)
from .mobility import Trajectory

DEFAULT_QUADRATURE_TOL = 1e-6
MAX_QUADRATURE_LEVELS = 20

_SINGULAR_DIST = 1e-12


# ---------------------------------------------------------------------------
# Environment and sources
# ---------------------------------------------------------------------------

# A boundary declares its walls and nothing else about images: `walls` maps
# each mirrored axis to its spacing L, walls at 0 and L; L = 0 is the single
# plane at 0.

@dataclass(frozen=True)
class FreeSpace:
    """Unbounded domain."""

    walls = {}


@dataclass(frozen=True)
class HalfSpaceReflecting:
    """Reflecting ground plane at z = 0; field defined for z >= 0."""

    walls = {2: 0.0}


@dataclass(frozen=True)
class RectangularDuctReflecting:
    """Duct running along x with reflecting walls y in [0, width],
    z in [0, height]. Its field is exact: images for young ages, cosine
    modes of the cross-section for old ones (see the module docstring)."""

    width: float
    height: float

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(f"duct width and height must be finite and > 0, "
                             f"got {self.width!r} and {self.height!r}")

    @property
    def walls(self) -> dict[int, float]:
        return {1: self.width, 2: self.height}


Boundary = Union[FreeSpace, HalfSpaceReflecting, RectangularDuctReflecting]


def check_inside(boundary: Boundary, points, what: str) -> None:
    """Raise OutOfDomain naming the first of `points` (one 3-vector or rows
    of them) outside the region `boundary` declares: for each axis in
    `walls`, 0 <= coordinate <= L, or 0 <= coordinate when L = 0."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    for axis, length in boundary.walls.items():
        c = points[:, axis]
        outside = (c < 0.0) | (c > length) if length else c < 0.0
        if outside.any():
            raise OutOfDomain(f"{what} {points[outside][0].tolist()} lies outside "
                              f"{type(boundary).__name__}: axis {axis} spans "
                              f"[0, {length if length else 'inf'}]")


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
        d = float(self.diffusivity)
        if not math.isfinite(d):
            raise ValueError(f"Diffusivity must be finite, got {d!r}")
        if d <= 0:
            raise ValueError(f"Diffusivity must be > 0, got {d}")
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


RateLike = Union[float, Sequence[tuple[float, float]]]


@dataclass(frozen=True)
class SourceSpec:
    """An emission source: instant (mass, kg) or continuous (rate, kg/s).

    A continuous source may carry a trajectory instead of a fixed position.
    Its rate is a constant or a list of (time, rate) steps, each held until
    the next and 0 before the first, as breathing, speaking and coughing
    switch an emitter's release. Either is turned once into `windows`,
    (begin, end, rate) with rate > 0 and begin >= start_time."""

    kind: SourceKind
    strength: RateLike
    position: Position | None = None
    trajectory: Trajectory | None = None
    start_time: float = 0.0
    windows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.position is None) == (self.trajectory is None):
            raise ValueError("provide exactly one of position or trajectory")
        if self.position is not None:
            object.__setattr__(self, "position", as_position(self.position))
        st = seconds(self.start_time)
        object.__setattr__(self, "start_time", st)
        if callable(self.strength):
            raise ValueError("a rate is a number or a list of (time, rate) steps")
        table = np.asarray(self.strength, dtype=float)
        steps = table if table.ndim else np.array([[st, table]])
        if table.ndim and (self.kind is SourceKind.INSTANT or steps.shape[1:] != (2,)
                           or not len(steps) or (np.diff(steps[:, 0]) <= 0).any()):
            raise ValueError("rate steps are a non-empty list of (time, rate) pairs at "
                             "strictly increasing times, for a continuous source only")
        if not np.isfinite(steps).all() or (steps[:, 1] < 0).any():
            raise ValueError(f"source strength must be finite and >= 0, got {self.strength!r}")
        object.__setattr__(self, "strength", float(table) if table.ndim == 0
                           else tuple(map(tuple, steps.tolist())))
        ends = [*steps[1:, 0].tolist(), math.inf]
        object.__setattr__(self, "windows", () if self.kind is SourceKind.INSTANT else tuple(
            (max(t, st), end, q) for (t, q), end in zip(steps.tolist(), ends)
            if q > 0 and end > st))

    @classmethod
    def instant(cls, position, mass_kg: float, start_time: float = 0.0) -> "SourceSpec":
        return cls(SourceKind.INSTANT, mass_kg, position=as_position(position),
                   start_time=start_time)

    @classmethod
    def continuous(cls, rate_kg_s: RateLike, position=None,
                   trajectory: Trajectory | None = None,
                   start_time: float = 0.0) -> "SourceSpec":
        return cls(SourceKind.CONTINUOUS, rate_kg_s, position=position,
                   trajectory=trajectory, start_time=start_time)

    @property
    def is_moving(self) -> bool:
        return self.trajectory is not None

    def rate_at(self, t: float) -> float:
        """The emission rate at time t: the sum of the windows open then."""
        if self.kind is not SourceKind.CONTINUOUS:
            raise ValueError("rate_at is defined for continuous sources only")
        return sum((q for begin, end, q in self.windows if begin <= t < end), 0.0)

    def point_at(self, t: float) -> np.ndarray:
        """Where the source is at time t (Trajectory.point_at if it moves)."""
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

# A block's per-pair temporaries are planes, one float per pair: 64 KiB at
# 2^13 pairs, and 128 KiB for erfcx's complex Horner arrays, so they stay
# within the allocator's default mmap threshold (128 KiB in glibc) and
# blocks reuse heap memory instead of faulting in fresh pages. Measured on
# the benchmark (2 shared cores), 2^13 beat 2^12 and 2^14: one block holds a
# still crowd's 4224 dose pairs, and larger blocks fell out of cache. A
# duct's modes take their (key, mode) axial integrals and their (row, mode)
# terms in blocks of the same bound.
_BLOCK_PAIRS = 2 ** 13


def _gauss1d(x: np.ndarray, centre: np.ndarray, four_dt: np.ndarray) -> np.ndarray:
    # Past |x - centre| ~ 1.3e154 (or past the largest float, where the
    # difference itself is inf), or at a subnormal four_dt, the exponent
    # overflows to -inf and the factor takes its exact limit 0.
    with np.errstate(over="ignore"):
        dx = x - centre
        return np.exp(-(dx * dx) / four_dt) / np.sqrt(math.pi * four_dt)


# The duct's split (see the module docstring). tau* D / min(W, H)^2 is a
# shape-free constant; 0.16 keeps about a hundred images and a few dozen
# modes for a duct whose sides differ by less than half. xi* / sqrt(W H) is
# another: at 0.85 the first far block keeps 120-150 modes in still air and
# in a drift of 1 m/s at D = 0.5 for a 3 x 2.5, 2 x 2 or 6 x 1 m duct, under
# the split's 165-220 images and modes; from 0.6 to 1.1 it moved the
# benchmark duct's time by less than the noise.
_TAIL = 32.0
_SPLIT_AGE = 0.16
_FAR_EDGE = 0.85


def _split_scale(b: Boundary) -> float:
    """D tau* of a duct: the age past which modes replace images."""
    return _SPLIT_AGE * min(b.walls.values(), default=0.0) ** 2


def _split_order(scale: float, length: float) -> int:
    """Image order along an axis of spacing `length` > 0 for ages up to scale / D.
    For points inside the duct the identity lies within L of the observer
    and the nearest dropped image 2nL from it, so each dropped image weighs
    at most exp(-((2nL)^2 - L^2) / (4 scale)) <= exp(-_TAIL) of a kept one."""
    return math.ceil(math.sqrt((4.0 * _TAIL * scale / length ** 2 + 1.0) / 4.0))


def _split_waves(b: Boundary, length: float) -> np.ndarray:
    """Wavenumbers k_m = m pi / L, m >= 1, of the modes along an axis of
    spacing `length` that weigh more than exp(-_TAIL) at tau*:
    D k_m^2 tau* <= _TAIL."""
    top = math.floor(length / math.pi * math.sqrt(_TAIL / _split_scale(b)))
    return math.pi / length * np.arange(1, top + 1, dtype=float)


def _reflected_offsets(length: float, order: int) -> np.ndarray:
    return 2.0 * length * np.arange(-order, order + 1, dtype=float)


def _axis_images(b: Boundary, scale: float) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """The 1-D images of each axis x, y, z as (signs, offsets): a source
    coordinate x0 has one image s * x0 + offset for every sign and offset,
    and an axis without walls has only x0 itself. An axis between two walls
    keeps the reflections that ages up to scale / D need (_split_order)."""
    def offsets(length):
        return _reflected_offsets(length, _split_order(scale, length)) if length else np.zeros(1)

    return [((1.0, -1.0), offsets(b.walls[axis])) if axis in b.walls
            else ((1.0,), np.zeros(1)) for axis in range(3)]


def _axis_factor(x: np.ndarray, x0: np.ndarray, tau: np.ndarray, b: Boundary,
                 diffusivity: float, axis: int, signs: tuple[float, ...],
                 offsets: np.ndarray) -> np.ndarray:
    """1-D kernel factor along one axis: the sum over its images, or past
    tau* on an axis between two walls the cosine series of its modes."""
    def images(x, x0, tau):
        four_dt = 4.0 * diffusivity * tau
        offs = offsets[:, None]
        return sum(_gauss1d(x, offs + s * x0, four_dt) for s in signs).sum(axis=0)

    length = b.walls.get(axis, 0.0)
    if not length:
        return images(x, x0, tau)
    young = tau <= _split_scale(b) / diffusivity
    out = np.empty(tau.size)
    out[young] = images(x[young], x0[young], tau[young])
    old = ~young
    k = _split_waves(b, length)[:, None]
    terms = np.exp(-diffusivity * k * k * tau[old]) * np.cos(k * x[old]) * np.cos(k * x0[old])
    out[old] = (1.0 + 2.0 * terms.sum(axis=0)) / length
    return out


def unit_instant_kernel(env: Environment, src_points: np.ndarray,
                        obs_points: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Concentration per unit released mass, vectorized over N evaluations.

    The image sum is a product of per-axis image sums, as the Gaussian
    separates by axis; in a duct an axis past tau* takes its modes. A row
    with a factor 0 is 0, even where its other factors overflow.

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
    drifted = src[live] + env.wind_arr[None, :] * tau[:, None]
    obs = obs[live]
    b = env.boundary
    images = _axis_images(b, _split_scale(b))
    val = np.zeros(tau.size)
    block = max(1, _BLOCK_PAIRS // max(len(s) * len(o) for s, o in images))
    for lo in range(0, tau.size, block):
        sl = slice(lo, lo + block)
        factors = [_axis_factor(obs[sl, axis], drifted[sl, axis], tau[sl], b,
                                env.diffusivity, axis, signs, offsets)
                   for axis, (signs, offsets) in enumerate(images)]
        # In axis order, but only where no factor is 0: such a row stays 0
        # even where the other two overflow (at a subnormal D or age).
        nonzero = (factors[0] != 0.0) & (factors[1] != 0.0) & (factors[2] != 0.0)
        np.multiply(factors[0], factors[1], out=val[sl], where=nonzero)
        np.multiply(val[sl], factors[2], out=val[sl], where=nonzero)
    out[live] = val
    return out


def image_transforms(env: Environment) -> list[tuple[np.ndarray, np.ndarray]]:
    """Affine maps (flip, offset) sending a source point to each of its
    mirror images: image = flip * p + offset. The identity comes first.
    In a duct these are the images its ages up to tau* need. The maps are
    read-only rows of _image_stack, built once per boundary."""
    return list(zip(*_image_stack(env.boundary, _split_scale(env.boundary))))


@lru_cache(maxsize=64)
def _image_stack(b: Boundary, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Flips and offsets of the image maps as read-only (M, 3) arrays: every
    combination of the per-axis images up to scale / D (_axis_images)."""
    per_axis = [[(s, o) for s in signs for o in offsets]
                for signs, offsets in _axis_images(b, scale)]
    maps = [tuple(zip(*combo)) for combo in itertools.product(*per_axis)]
    # Identity first for singularity checks.
    maps.sort(key=lambda m: m != ((1.0,) * 3, (0.0,) * 3))
    flips, offsets = map(np.array, zip(*maps))
    flips.setflags(write=False)
    offsets.setflags(write=False)
    return flips, offsets


@lru_cache(maxsize=64)
def _duct_modes(b: RectangularDuctReflecting) -> tuple[np.ndarray, ...]:
    """The cross-section modes (m, n) of a duct that weigh more than
    exp(-_TAIL) at tau*, D (k_m^2 + k_n^2) tau* <= _TAIL: the wavenumbers
    ky, kz of each axis (0 first), then per mode its m and n, its
    eigenvalue k_m^2 + k_n^2 and its weight eps_m eps_n / (W H), eps = 1
    for the 0 mode and 2 for the others. Mode (0, 0) comes first."""
    ky = np.concatenate([[0.0], _split_waves(b, b.width)])
    kz = np.concatenate([[0.0], _split_waves(b, b.height)])
    m, n, lam, weight = _mode_lattice(b, ky, kz)
    keep = lam * _split_scale(b) <= _TAIL
    return ky, kz, m[keep], n[keep], lam[keep], weight[keep]


def _mode_lattice(b: RectangularDuctReflecting, ky: np.ndarray,
                  kz: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every mode of the wavenumbers ky, kz (0 first): its m, n, its
    eigenvalue k_m^2 + k_n^2 and its weight eps_m eps_n / (W H)."""
    m, n = (a.ravel() for a in np.meshgrid(np.arange(ky.size), np.arange(kz.size),
                                            indexing="ij"))
    weight = np.where(m > 0, 2.0, 1.0) * np.where(n > 0, 2.0, 1.0) / (b.width * b.height)
    return m, n, ky[m] ** 2 + kz[n] ** 2, weight


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


def _erfcx_slope(z: np.ndarray) -> np.ndarray:
    """-erfcx'(z) = 2/sqrt(pi) - 2 z erfcx(z), for z >= -0.46875. Past
    z = 4 Cody's tail form erfcx(z) = (1/sqrt(pi) - t P5(t) / Q5(t)) / z,
    t = 1/z^2, makes it 2 t P5(t) / Q5(t), free of the difference's
    cancellation."""
    # At z = inf, z erfcx(z) is inf * 0; the tail form below replaces it.
    with np.errstate(invalid="ignore"):
        out = 2.0 * _INV_SQRT_PI - 2.0 * z * _erfcx(z)
    tail = z > 4.0
    if tail.any():
        # Past z ~ 1.3e154 z^2 overflows and t is its limit 0.
        with np.errstate(over="ignore", under="ignore"):
            t = 1.0 / z[tail] ** 2
            out[tail] = 2.0 * t * _rational(t, _ERFCX_TAIL)
    return out


# 8-point Gauss-Legendre on [-1, 1]: its positive nodes and their weights.
_GL_NODES = np.array([0.18343464249564978, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.36268378337836166, 0.3137066458778869,
                        0.22238103445337443, 0.10122853629037706])
_GL_EDGE = 0.25


def _pair_kernel(d: np.ndarray, v_dot_dr: np.ndarray | None, tau: np.ndarray,
                 diffusivity: float, speed: float | np.ndarray,
                 end: np.ndarray | None = None) -> np.ndarray:
    """Per-unit-rate field of (image source, observer) pairs, d > 0 and
    tau > 0 (tau may be inf), all in one drift v or each in its own (speed
    is |v|, one value or one per pair); tau, end and a per-pair speed
    broadcast against d. With
    a = v . dr / 2D, b = |v| d / 2D and y, x = (d -+ |v| tau) / 2 sqrt(D tau)
    the bracket is e^(a - b) erfc(y) + e^(a + b) erfc(x). Writing
    erfc(x) = e^(-x^2) erfcx(x) gives both terms the factor
    e^(a - b - y^2) = e^(a + b - x^2) <= e^(a - b) <= 1 (as v . dr <= |v| d),
    so no exponent evaluated is positive.

    y and x are p -+ q with p = d / 2 sqrt(D tau) and q = |v| sqrt(tau) / 2
    sqrt(D), both formed from sqrt(tau), so no age above 0 underflows
    them. In still air (speed the number 0; v_dot_dr is not read) a, b and
    q vanish, so both terms are near = e^(-p^2) erfcx(p): one exp and one
    erfcx give the bracket near + near, which is 2 at tau = inf (p = 0).

    Given `end` (finite, 0 < end < tau) it is the window K(tau) - K(end).
    Past the pair's peak at end (y < 0 there, hence also at tau) both
    kernels are near the steady value, so the window is taken as what
    K(end) still lacks of it less what K(tau) lacks, each
    e^(a - b) erfc(-y) - e^(a + b) erfc(x) (0 at tau = inf): no two nearly
    equal values are subtracted. In still air y = p >= 0, so that case
    never arises."""
    scale = 8.0 * math.pi * diffusivity * d
    if not isinstance(speed, np.ndarray) and speed == 0.0:
        def still(s):
            if np.isinf(s).all():  # the steady bracket 2 (p = 0), without an erfcx
                return 2.0 / scale
            p = d / (2.0 * math.sqrt(diffusivity) * np.sqrt(s))
            with np.errstate(over="ignore", under="ignore"):
                near = np.exp(0.0 - p * p)
            near = near * _erfcx(p)
            return (near + near) / scale

        return still(tau) if end is None else still(tau) - still(end)
    per_pair = isinstance(speed, np.ndarray)
    a_minus_b = (v_dot_dr - speed * d) / (2.0 * diffusivity)

    def at(s):
        """The bracket at ages s, and where s is finite its near, far and y."""
        bracket = 2.0 * np.exp(a_minus_b)  # the steady bracket, kept where s = inf
        fin = np.isfinite(s)
        if fin.all():
            fin = ...  # every age finite: whole planes, no pair gathered
        else:
            s, fin = np.broadcast_to(s, d.shape), np.broadcast_to(fin, d.shape)
        width = 2.0 * math.sqrt(diffusivity) * np.sqrt(s[fin])
        p = d[fin] / width
        q = width * ((speed[fin] if per_pair else speed) / (4.0 * diffusivity))
        y = p - q
        # Near s = 0 (subnormal ages) y^2 overflows: the exponent is -inf and
        # the finite-age terms are exactly 0, as is any exp that underflows.
        with np.errstate(over="ignore", under="ignore"):
            damp = np.exp(a_minus_b[fin] - y * y)
        near = damp * _erfcx(np.abs(y))  # exp(a - b) erfc(|y|)
        far = damp * _erfcx(p + q)
        bracket[fin] = np.where(y >= 0.0, near, bracket[fin] - near) + far
        return bracket, fin, near, far, y

    bracket, fin, near, far, _ = at(tau)
    if end is None:
        return bracket / scale
    before, _, near_end, far_end, y_end = at(end)
    lack = np.zeros(d.shape)
    lack[fin] = near - far
    return np.where(y_end < 0.0, (near_end - far_end - lack) / scale,
                    bracket / scale - before / scale)


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
    summed over the mirror images of image_transforms(env). In a duct those
    cover ages up to tau* and its cross-section modes the older ones
    (_mode_kernel); a trajectory piece moving across the duct splits at
    tau0 = _TAIL (max(W, H) / pi)^2 / D instead, the images it needs before
    and mode (0, 0) alone after. A row at |xi| >= xi* from its source that
    does not move across the duct takes the modes alone from age 0 (or
    from its taus_end) and no images, when the bound on the modes its
    table drops lies under exp(-_TAIL) of what the table keeps (_far_rows);
    otherwise it keeps the split at tau*. Each of those two passes takes a
    mode's axial integral once per distinct axial key (xi, drift, lo, hi)
    of its rows, for all its tables together. Every choice reads the row's
    own values, and every value has the arithmetic it has alone, so a
    row's value does not depend on the batch. Its bounds assume every
    emission point lies inside the duct, which evaluate_field checks.

    With dr = r - r0, d = |dr| and drift v, each image contributes
        K(tau) = exp(v . dr / 2D) / (8 pi D d)
        * [exp(-|v| d / 2D) erfc((d - |v| tau) / (2 sqrt(D tau)))
           + exp(|v| d / 2D) erfc((d + |v| tau) / (2 sqrt(D tau)))];
    tau = inf gives the steady kernel exp((v . dr - |v| d) / 2D) / (4 pi D d).
    The exponents are combined before evaluation, so the result is finite
    for any |v| d / D. For a static source v is the wind w.

    A static source (velocity None) keeps a scalar drift: |v| is one
    number for all pairs, v . dr one dot of the dr planes with w, and in
    still air neither is formed, as the bracket takes one exp and one erfcx
    (_pair_kernel). Sending it through the per-pair drift of a moving
    source (u = 0) costs 0.22 -> 0.40 ms for 3000 still-air free-space
    pairs and 0.83 -> 1.11 ms for 4000 windy half-space pairs; 200 windy
    duct points at 60 s, where the modes dominate, take 3.0 ms either way
    (best of 40 interleaved calls, 2 shared cores, numpy 2.4).

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

    A static source at tau = inf in still air between walls raises
    SingularPoint while it still emits (taus_end absent or finite): the field
    grows like sqrt(t), with the duct's (0, 0) mode. Emission that stopped
    (taus_end = inf) has the limit 0.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    n = taus.size
    ends = None if taus_end is None else np.broadcast_to(np.asarray(taus_end, float), (n,))
    b = env.boundary
    if (velocity is None and not env.has_wind and any(b.walls.values())
            and (np.isinf(taus) & (ends is None or np.isfinite(ends))).any()):
        raise SingularPoint("no steady state: still air between walls never settles")
    src = np.broadcast_to(np.atleast_2d(src_points), (n, 3))
    obs = np.broadcast_to(np.atleast_2d(obs_points), (n, 3))
    vel = None if velocity is None else np.broadcast_to(np.atleast_2d(velocity), (n, 3))
    if not any(b.walls.values()):
        return _image_kernel(env, *_image_stack(b, _split_scale(b)), src, obs, taus, vel, ends)
    out = np.empty(n)
    cross = np.zeros(n, dtype=bool) if vel is None else (vel[:, list(b.walls)] != 0.0).any(axis=1)
    drift = env.wind_arr[0] - (np.zeros(n) if vel is None else vel[:, 0])
    along = ~cross
    far, values = _far_rows(b, env.diffusivity, src, obs, drift,
                            np.zeros(n) if ends is None else ends, taus, along)
    out[far] = values
    along[far] = False
    modes = _duct_modes(b)
    jobs, lo = [], np.zeros(n)
    for rows, scale, table in ((along, _split_scale(b), modes),
                               (cross, _TAIL * (max(b.walls.values()) / math.pi) ** 2,
                                tuple(a[:1] for a in modes))):
        if not rows.any():
            continue
        split = scale / env.diffusivity
        out[rows] = _image_kernel(
            env, *_image_stack(b, scale), src[rows], obs[rows], np.minimum(taus[rows], split),
            None if vel is None else vel[rows],
            None if ends is None else np.minimum(ends[rows], split))
        lo[rows] = split if ends is None else np.maximum(ends[rows], split)
        old = np.flatnonzero(rows & (taus > lo))
        if old.size:
            jobs.append((table, old))
    if jobs:
        with np.errstate(over="ignore"):  # a span past the largest float is inf
            xi = obs[:, 0] - src[:, 0]
        grouping = _axial_keys(xi, drift, lo, taus, np.concatenate([i for _, i in jobs]))
        for (_, i), values in zip(jobs, _mode_kernel(jobs, env.diffusivity, src, obs,
                                                     *grouping)):
            out[i] += values
    return out


def _image_kernel(env: Environment, flips: np.ndarray, offsets: np.ndarray,
                  src: np.ndarray, obs: np.ndarray, taus: np.ndarray,
                  vel: np.ndarray | None, ends: np.ndarray | None) -> np.ndarray:
    """unit_continuous_kernel over the images (flips, offsets), per row.
    A block of rows works on (rows, M) planes, one per axis: dr along each
    axis, d, and for a moving source its drift. Where every pair of the
    block is live (and every one still emits, or every one has stopped)
    the pair kernel runs on the whole planes, with no pair gathered or
    scattered; a row's sum over its images is the pairwise sum of its
    plane row."""
    n, m = taus.size, len(flips)
    D = env.diffusivity
    out = np.zeros(n)
    block = max(1, _BLOCK_PAIRS // m)
    # Per axis: the observers', sources' and velocities' columns as (n, 1)
    # and the maps' flips and offsets as (M,).
    obs_t, src_t = obs.T[:, :, None], src.T[:, :, None]
    vel_t = None if vel is None else vel.T[:, :, None]
    maps = list(zip(flips.T, offsets.T))

    for lo in range(0, n, block):
        sl = slice(lo, lo + block)
        with np.errstate(over="ignore"):  # a span past the largest float is inf
            dr = [o - (s * flip + offset)
                  for o, s, (flip, offset) in zip(obs_t[:, sl], src_t[:, sl], maps)]
        d = _length(*dr)
        if vel is None:
            drift, speed = env.wind_arr, env.wind.speed
        else:
            drift = [w - v * flip for w, v, (flip, _) in zip(env.wind_arr, vel_t[:, sl], maps)]
            speed = _length(*drift)
        # A pair whose d, or 8 pi D d, overflowed takes its limit 0, left out
        # of the kernel (at most 2 / 8 pi D d, under the smallest normal
        # float); its dr reads 0 so that v . dr forms no inf - inf or inf * 0.
        with np.errstate(over="ignore"):
            far = 8.0 * math.pi * D * d == np.inf
        if far.any():
            dr = [np.where(far, 0.0, c) for c in dr]
        v_dot_dr = None if vel is None and not env.has_wind else (
            (dr[0] * drift[0] + dr[1] * drift[1]) + dr[2] * drift[2])
        apart = (d >= _SINGULAR_DIST) & ~far
        tau = taus[sl, None]
        if ends is None:
            end = 0.0
            kern = _on_pairs(None, (tau > 0.0) & apart, _pair_kernel, d, v_dot_dr, tau, D,
                             speed)
        else:
            end = ends[sl, None]
            live = (tau > end) & apart
            stopped = live & (end > 0.0)
            kern = _on_pairs(None, live & ~stopped, _pair_kernel, d, v_dot_dr, tau, D, speed)
            kern = _on_pairs(kern, stopped, _pair_kernel, d, v_dot_dr, tau, D, speed, end)
            np.maximum(kern, 0.0, out=kern)
            on_path = (tau > end) & (end > 0.0) & (d < _SINGULAR_DIST)
            if on_path.any():
                kern[on_path] = _on_path_kernel(
                    *(np.broadcast_to(a, d.shape)[on_path] for a in (end, tau)), D,
                    speed if vel is None else speed[on_path])
            end = end[:, 0]
        emitting = taus[sl] > end if ends is None else (taus[sl] > end) & (end == 0.0)
        out[sl] = kern.sum(axis=1)
        out[sl][emitting & (d[:, 0] < _SINGULAR_DIST)] = np.inf
    return out


def _on_pairs(kern: np.ndarray | None, mask: np.ndarray, fn: Callable,
              *args) -> np.ndarray:
    """kern (zeros when None) with fn(*args) written over the pairs of
    `mask`; each argument is a scalar, None or an array that broadcasts to
    the mask. When the mask holds every pair, fn runs on the whole
    arguments and its result replaces kern: no pair is gathered or
    scattered."""
    if mask.all():
        return fn(*args)
    if kern is None:
        kern = np.zeros(mask.shape)
    if mask.any():
        kern[mask] = fn(*(a if np.ndim(a) == 0 else np.broadcast_to(a, mask.shape)[mask]
                          for a in args))
    return kern


def _length(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|(x, y, z)| per element of three planes: the root of
    (x^2 + y^2) + z^2, or np.hypot where that sum overflows (past about
    1.3e154)."""
    with np.errstate(over="ignore"):
        norm = np.sqrt((x * x + y * y) + z * z)
    big = np.isinf(norm)
    if big.any():
        norm[big] = np.hypot(np.hypot(x[big], y[big]), z[big])
    return norm


def _axial_keys(xi: np.ndarray, drift: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                rows: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The rows `rows` grouped by the bytes of their axial key (xi, drift,
    lo, hi), of which a mode's axial integral is a function: the distinct
    keys' four columns, and each row's key (an array over all rows, read
    at `rows` only). In a duct grid every row of one cross-section plane
    shares a key."""
    cols = np.column_stack([xi[rows], drift[rows], lo[rows], hi[rows]])
    _, first, inverse = np.unique(cols.view(np.dtype((np.void, 32))).ravel(),
                                  return_index=True, return_inverse=True)
    key = np.zeros(xi.size, dtype=np.intp)
    key[rows] = inverse
    return tuple(cols[first].T), key


def _key_spans(keys: tuple[np.ndarray, ...], jobs: Sequence[tuple[np.ndarray, np.ndarray]],
               diffusivity: float) -> list[np.ndarray]:
    """Per job (key indices, lam): the axial integral (_axial_span) of each
    of those keys in each mode lam, a (keys, modes) table. The pairs of all
    jobs are evaluated together, whole keys at a time, in blocks of at most
    _BLOCK_PAIRS pairs (one key's modes where a table holds more). A block
    of one job's keys takes them as columns against its modes; a block
    that joins several jobs gathers its pairs flat from the key columns
    as it is evaluated. Either way each pair has the same arithmetic."""
    xi, drift, lo, hi = keys
    segments = [(ks[i:i + step], lam) for ks, lam in jobs
                for step in [max(1, _BLOCK_PAIRS // lam.size)]
                for i in range(0, ks.size, step)]
    sizes = [ks.size * lam.size for ks, lam in segments]
    spans = np.empty(sum(sizes))
    start = i = 0
    while i < len(segments):
        j, size = i + 1, sizes[i]
        while j < len(segments) and size + sizes[j] <= _BLOCK_PAIRS:
            size, j = size + sizes[j], j + 1
        if j == i + 1:
            k, lam = segments[i][0][:, None], segments[i][1]
        else:
            k, lam = (np.concatenate(a) for a in zip(*(
                (np.repeat(ks, lam.size), np.tile(lam, ks.size)) for ks, lam in segments[i:j])))
        spans[start:start + size] = _axial_span(xi[k], drift[k], lam, lo[k], hi[k],
                                                diffusivity).ravel()
        start, i = start + size, j
    bounds = np.cumsum([ks.size * lam.size for ks, lam in jobs])[:-1]
    return [part.reshape(ks.size, lam.size)
            for part, (ks, lam) in zip(np.split(spans, bounds), jobs)]


def _mode_kernel(jobs: Sequence[tuple[tuple[np.ndarray, ...], np.ndarray]],
                 diffusivity: float, src: np.ndarray, obs: np.ndarray,
                 keys: tuple[np.ndarray, ...], key: np.ndarray) -> list[np.ndarray]:
    """Ages [lo, hi] (hi may be inf) of the unit-rate continuous kernel in a
    duct, for each job (table, rows) its rows' values from the cross-section
    modes of a _duct_modes table: for a source at (x0, y0, z0) drifting
    along the duct, the sum over modes of weight cos(k_m y) cos(k_m y0)
    cos(k_n z) cos(k_n z0) times the mode's axial integral over [lo, hi]
    (_axial_span). That integral depends on a row only through its axial
    key (keys and key, from _axial_keys), so each job takes it once per
    key and mode, and all jobs of a call in one pass (_key_spans).

    A row's terms are summed along a C-ordered row, which numpy sums
    pairwise. A product of fancy-indexed columns comes out C-ordered only
    up to 2^15 elements (numpy 2.4), and past that in Fortran order, whose
    rows numpy sums sequentially; so the order is made explicit, and rows
    are taken _BLOCK_PAIRS terms at a time. A row's bits do not depend on
    the batch."""
    own = []  # per job: its keys, and each row's place among them
    for table, rows in jobs:
        seen = np.zeros(keys[0].size, dtype=bool)
        seen[key[rows]] = True
        own.append((np.flatnonzero(seen), (np.cumsum(seen) - 1)[key[rows]]))
    spans = _key_spans(keys, [(ks, table[4]) for (ks, _), (table, _) in zip(own, jobs)],
                       diffusivity)
    out = []
    for (table, rows), (_, local), span in zip(jobs, own, spans):
        ky, kz, m, n, lam, weight = table
        cy = np.cos(np.outer(obs[rows, 1], ky)) * np.cos(np.outer(src[rows, 1], ky))
        cz = np.cos(np.outer(obs[rows, 2], kz)) * np.cos(np.outer(src[rows, 2], kz))
        values = np.empty(rows.size)
        step = max(1, _BLOCK_PAIRS // lam.size)
        for i in range(0, rows.size, step):
            c = slice(i, i + step)
            terms = weight * cy[c][:, m] * cz[c][:, n] * span[local[c]]
            values[c] = np.ascontiguousarray(terms).sum(axis=1)
        out.append(values)
    return out


def _far_edge(b: RectangularDuctReflecting) -> float:
    """xi*, the axial distance from which a row may take modes alone."""
    return _FAR_EDGE * math.sqrt(b.width * b.height)


@lru_cache(maxsize=256)
def _far_modes(b: RectangularDuctReflecting, q: float,
               block: int) -> tuple[tuple[np.ndarray, ...], float] | None:
    """The modes of rows with |xi| in [xi_lo, 2 xi_lo), xi_lo = xi* 2^block,
    whose mode (0, 0) decays at kappa_00 = |u| / 2D <= q: a _duct_modes
    table of those with xi_lo (kappa - q) <= _TAIL, kappa = sqrt(q^2 +
    lambda), and `tail`, an upper bound on the lattice sum over the dropped
    ones of eps_m eps_n / (W H) e^(-xi_lo (kappa - q)) / sqrt(lambda). For
    any such row the steady sum of the dropped modes, each
    eps_m eps_n / (W H) e^(u xi / 2D - |xi| kappa) / 2D kappa at its own
    kappa_00, is at most e^(u xi / 2D - |xi| kappa_00) tail / 2D: its
    |xi| >= xi_lo, its kappa >= sqrt(lambda), and kappa - kappa_00 falls
    as kappa_00 grows to q. None when more modes are kept than the split at
    tau* has images and modes, whose work they would replace, or when
    2 _TAIL / xi_lo vanishes against a lattice cell, so that no tail can be
    bounded.

    The kept modes fill the quarter disc lambda <= s^2 + 2 q s, s = _TAIL /
    xi_lo, and the lattice cells, of area pi^2 / (W H), whose lower corners
    they are cover it, so at least W H (s^2 + 2 q s) / 4 pi are kept: a
    block past that count is refused before its lattice is enumerated,
    which bounds the enumeration, out to twice s, at a few times the work.

    The sum is taken term by term over wavenumbers |k| = sqrt(lambda) up to
    rho, one lattice cell's diagonal past every mode with xi_lo (kappa - q)
    <= 2 _TAIL. Beyond rho the summand g(|k|) falls with |k|, so each term
    is at most the mean of g over its lattice cell, which lies past
    rho - diagonal: the interior terms sum to at most (2 / pi) times the
    integral of e^(-xi_lo (kappa - q)) over |k| > rho - diagonal, and each
    axis to its first term past rho plus L / pi times the integral of g.
    Past r, kappa - q grows at least at r / sqrt(q^2 + r^2) per unit |k|,
    which bounds both integrals in closed form."""
    xi_lo = math.ldexp(_far_edge(b), block)
    s = _TAIL / xi_lo
    work = len(_image_stack(b, _split_scale(b))[0]) + _duct_modes(b)[4].size
    if b.width * b.height * (s * s + 2.0 * q * s) / (4.0 * math.pi) > work:
        return None
    cell = math.pi * math.hypot(1.0 / b.width, 1.0 / b.height)
    rho = math.sqrt(4.0 * s * s + 4.0 * q * s) + cell  # kappa - q <= 2 s
    if rho == cell:
        return None
    ky, kz = (math.pi / L * np.arange(math.floor(L * rho / math.pi) + 2.0)
              for L in (b.width, b.height))
    m, n, lam, weight = _mode_lattice(b, ky, kz)
    decay = xi_lo * lam / np.where(lam > 0.0, np.hypot(q, np.sqrt(lam)) + q, 1.0)
    keep = decay <= _TAIL
    if np.count_nonzero(keep) > work:
        return None

    def fall(k):
        """e^(-xi_lo (kappa - q)) at |k| and the integral of it past |k|."""
        at = math.exp(-xi_lo * k * k / (math.hypot(q, k) + q))
        return at, at * math.hypot(q, k) / (xi_lo * k)

    drop = ~keep
    with np.errstate(under="ignore"):
        tail = float((weight[drop] * np.exp(-decay[drop]) / np.sqrt(lam[drop])).sum())
    tail += 2.0 / math.pi * fall(rho - cell)[1]
    for L in (b.width, b.height):
        k = math.pi / L * (math.floor(L * rho / math.pi) + 1.0)
        at, past = fall(k)
        tail += 2.0 / (b.width * b.height) * (at + L / math.pi * past) / k
    m, n = m[keep], n[keep]
    return (ky[:m.max() + 1], kz[:n.max() + 1], m, n, lam[keep], weight[keep]), tail


def _far_rows(b: RectangularDuctReflecting, diffusivity: float, src: np.ndarray,
              obs: np.ndarray, drift: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows among `rows` (none moving across the duct) that take ages
    [lo, hi] from the cross-section modes alone, and their values: those
    with |xi| >= xi*, each through the _far_modes table of its |xi| block
    and of kappa_00 rounded up to a power of 2, whose bound on the dropped
    modes lies under exp(-_TAIL) of what the table keeps. The rounding lets
    the pieces of a path walked along the duct, each at its own drift,
    share a few tables; a table per exact drift would cost each piece its
    own table and its own pass over the modes. Mode (0, 0), the
    cross-section mean, must clear that bound first, so a young row, whose
    mean is tiny, skips the table; a closed-form bound on that mean
    turns most such rows away before their mean is computed. The mean and
    every table read one grouping of the rows by axial key (_axial_keys),
    and all tables take one _mode_kernel call. Every test reads the row's
    own values only."""
    with np.errstate(over="ignore"):  # an infinite xi or q is no candidate
        xi = obs[:, 0] - src[:, 0]
        q = np.abs(drift) / (2.0 * diffusivity)
    cand = np.flatnonzero(rows & (np.abs(xi) >= _far_edge(b)) & (hi > lo)
                          & np.isfinite(xi) & np.isfinite(q))
    block = np.frexp(np.abs(xi[cand]) / _far_edge(b))[1] - 1
    frac, exp2 = np.frexp(q[cand])
    exp2 -= frac == 0.5
    top = np.where(frac > 0.0, np.ldexp(1.0, exp2), 0.0)
    # One table per (block, top): top is 2^exp2, exp2 in [-1074, 1024], or
    # 0, and blocks are at most about 1030.
    _, first, which = np.unique(block * 4096 + np.where(frac > 0.0, exp2 + 2048, 0),
                                return_index=True, return_inverse=True)
    tables = [_far_modes(b, float(top[i]), int(block[i])) for i in first]
    has = np.array([t is not None for t in tables], dtype=bool)[which]
    tail = np.array([0.0 if t is None else t[1] for t in tables])[which]
    cand, which, tail = cand[has], which[has], tail[has]
    with np.errstate(over="ignore", under="ignore"):
        # e^(u xi / 2D - |xi| kappa_00) e^_TAIL / 2D, e^_TAIL / 2D downstream
        scale = np.where(drift[cand] * xi[cand] > 0.0, 1.0,
                         np.exp(-2.0 * q[cand] * np.abs(xi[cand]))) * (
                             math.exp(_TAIL) / (2.0 * diffusivity))
    limit = tail * scale
    # A row whose mean is under half its limit (a factor 2 to spare for
    # rounding) cannot clear it, and skips _axial_span.
    young = 2.0 * _head_bound(b, diffusivity, xi[cand], drift[cand], hi[cand]) < limit
    cand, which, limit = cand[~young], which[~young], limit[~young]
    if not cand.size:
        return cand, np.zeros(0)
    grouping = _axial_keys(xi, drift, lo, hi, cand)
    keys, key = grouping
    mean = _key_spans(keys, [(np.arange(keys[0].size), np.zeros(1))], diffusivity)[0][
        key[cand], 0] / (b.width * b.height)
    clear = limit < mean
    sel = [(t[0], clear & (which == i)) for i, t in enumerate(tables) if t is not None]
    sel = [(table, s) for table, s in sel if s.any()]
    far = np.concatenate([cand[:0]] + [cand[s] for _, s in sel])
    values = np.concatenate([np.zeros(0)] + _mode_kernel(
        [(table, cand[s]) for table, s in sel], diffusivity, src, obs, *grouping))
    ok = np.concatenate([limit[:0]] + [limit[s] for _, s in sel]) < values
    return far[ok], values[ok]


def _head_bound(b: RectangularDuctReflecting, diffusivity: float, xi: np.ndarray,
                u: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """An upper bound on mode (0, 0) of each row over ages [lo, hi], for
    any lo >= 0: its integral over [0, hi] with the exponent at its least,
    sqrt(hi / pi D) e^(-m^2 / 4 D hi) / (W H), where m, the smallest
    |xi - u s| for s in [0, hi], is |xi| unless the drift carries the
    source towards the observer (u xi > 0), and then max(|xi| - |u| hi, 0)."""
    reach = np.abs(xi)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        down = u * xi > 0.0
        reach[down] = np.maximum(reach[down] - np.abs(u[down]) * hi[down], 0.0)
        return np.sqrt(hi / (math.pi * diffusivity)) * np.exp(
            -(reach * reach) / (4.0 * diffusivity * hi)) / (b.width * b.height)


def _axial_span(xi: np.ndarray, u: np.ndarray, lam: np.ndarray, lo: np.ndarray,
                hi: np.ndarray, diffusivity: float) -> np.ndarray:
    """Per (row, mode): the integral over ages sigma in [lo, hi] of
    (4 pi D sigma)^(-1/2) exp(-(xi - u sigma)^2 / (4 D sigma) - D lam sigma),
    the axial kernel of a drift u times a mode's decay; xi, u, lo and hi
    are (R, 1) (hi may be inf) and lam is (K,).

    With a = |xi| / 2 sqrt(D), b^2 = u^2 / 4D + D lam, x = a / sqrt(s),
    beta = b sqrt(s) and damp = exp(-(xi - u s)^2 / 4Ds - D lam s) <= 1, the
    integral over [0, s] is the head
        e^(u xi / 2D) sqrt(pi) / 2b [e^(-2ab) erfc(x - beta)
                                     - e^(2ab) erfc(x + beta)] / sqrt(4 pi D)
        = damp [erfcx(x - beta) - erfcx(x + beta)] / (4 b sqrt(D)),
    and the one over [s, inf) the tail, the same with erfc(beta - x) +
    erfc(beta + x), = damp [erfcx(beta - x) + erfcx(beta + x)] / (4 b sqrt(D)).
    An age before the integrand's peak (x >= beta) takes the head and one
    after it the tail, so every erfcx argument is >= 0, no exponent
    evaluated is positive, and a span past the peak is a difference of
    small tails, not of two nearly equal heads. (For beta < _GL_EDGE the
    tail is about 1 / (2 b sqrt(D)), so such ages keep the head.) A
    span across the peak is the whole, e^(u xi / 2D - 2ab) / (2 b sqrt(D)),
    less both ends; that exponent is -2a (b - +-p), with p = |u| / 2 sqrt(D)
    and b - p = D lam / (b + p).

    The head's erfcx difference cancels for beta < _GL_EDGE: there it is
    2 beta times the mean of -erfcx' over [x - beta, x + beta], which
    8-point Gauss-Legendre gives to rounding. At beta = 0 (mode (0, 0) in
    still air) that mean is -erfcx'(x), and the head is the closed form
    [2 sqrt(s) e^(-a^2 / s) - 2 a sqrt(pi) erfc(a / sqrt(s))] / sqrt(4 pi D).
    """
    sqrt_d = math.sqrt(diffusivity)
    p = np.abs(u) / (2.0 * sqrt_d)
    b = np.sqrt(p * p + diffusivity * lam)
    a = np.abs(xi) / (2.0 * sqrt_d)

    def end(s):
        """(head or tail of s, whether s is past the peak); head(0) = 0 and
        tail(inf) = 0 exactly, neither evaluated."""
        fin = np.isfinite(s)
        pos = fin & (s > 0.0)
        if not pos.any():
            return np.zeros(b.shape), np.broadcast_to(~fin, b.shape)
        sf = np.where(pos, s, 1.0)
        rs = np.sqrt(sf)
        x = np.broadcast_to(a / rs, b.shape)
        beta = b * rs
        # Past |xi - u s| ~ 1.3e154 the square overflows and damp is its limit 0.
        with np.errstate(over="ignore", under="ignore"):
            damp = np.exp(-(xi - u * sf) ** 2 / (4.0 * diffusivity * sf)
                          - diffusivity * lam * sf)
        near = (beta < _GL_EDGE) & pos
        past = (~near & (x < beta) & pos) | ~fin
        out = np.zeros(b.shape)
        tail = past & fin
        out[tail] = (damp[tail] * (_erfcx(beta[tail] - x[tail]) + _erfcx(beta[tail] + x[tail]))
                     / (4.0 * b[tail] * sqrt_d))
        head = ~past & ~near & pos
        out[head] = (damp[head] * (_erfcx(x[head] - beta[head]) - _erfcx(x[head] + beta[head]))
                     / (4.0 * b[head] * sqrt_d))
        if near.any():
            xs, bs = x[near], beta[near]
            mean_slope = _erfcx_slope(xs)
            moving = bs > 0.0
            at = xs[moving, None]
            off = bs[moving, None] * _GL_NODES
            pairs = _erfcx_slope(at + off) + _erfcx_slope(at - off)
            # Column by column, not a matrix product, so that a row's bits
            # do not depend on the batch.
            mean_slope[moving] = 0.5 * sum(pairs[:, i] * w for i, w in enumerate(_GL_WEIGHTS))
            out[near] = (np.broadcast_to(rs, b.shape)[near] * damp[near] * mean_slope
                         / (2.0 * sqrt_d))
        return out, past

    at_lo, past_lo = end(lo)
    at_hi, past_hi = end(hi)
    span = np.where(past_lo, at_lo - at_hi, at_hi - at_lo)
    across = past_hi & ~past_lo
    if across.any():
        def part(v):
            return np.broadcast_to(v, b.shape)[across]

        bb, pp = b[across], part(p)
        gap = np.where(part(u * xi > 0.0), diffusivity * part(lam) / (bb + pp), bb + pp)
        with np.errstate(under="ignore"):
            whole = np.exp(-2.0 * part(a) * gap) / (2.0 * bb * sqrt_d)
        span[across] = whole - at_hi[across] - at_lo[across]
    return span


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
    QuadratureFailure with the best estimate otherwise. Only running sums
    are kept, and each level's new nodes are evaluated _QUADRATURE_BLOCK at
    a time, so memory stays bounded however deep the refinement goes.
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
_BLOCK_WINDOWS = 2 ** 16


def _moving_unit_field(src: SourceSpec, env: Environment, positions: np.ndarray,
                       times: np.ndarray, begin: float, end: float) -> np.ndarray:
    """Unit-rate field of a source on a trajectory emitting over [begin, end]:
    for every (point, piece) pair whose emission window [max(start, begin),
    min(stop, end, t)] is not empty, one unit_continuous_kernel evaluation of
    the piece's extrapolated position and velocity, blocked over points.
    The pieces are Trajectory.pieces, the columns of the path's KnotTable,
    so the held end knots are the table's still first and last pieces."""
    start, stop, ref_t, ref_p, vel = src.trajectory.pieces
    first, stop = np.maximum(start, begin), np.minimum(stop, end)
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


def concentration_continuous(src: SourceSpec, env: Environment, r, t) -> float:
    """Field of a continuous source, static or moving, with or without wind:
    unit_continuous_kernel over each emission window (summed over mirror
    images; a trajectory piece by piece), times the window's rate."""
    if src.kind is not SourceKind.CONTINUOUS:
        raise ValueError("concentration_continuous expects a continuous source")
    return _field_at(src, env, r, seconds(t))


def concentration_steady(src: SourceSpec, env: Environment, r) -> float:
    """t -> infinity limit of a static continuous source's field.

    With wind v the steady kernel is
        exp((v . dr - |v| d) / (2 D)) / (4 pi D d),
    which reduces to 1 / (4 pi D d) in still air; mirror images are summed
    for reflecting boundaries. It is unit_continuous_kernel at tau = inf,
    summed over the windows that never close (a closed one adds 0); in
    still air between walls that kernel raises SingularPoint for an open
    window, as no steady state exists there.
    """
    if src.kind is not SourceKind.CONTINUOUS or src.is_moving:
        raise ValueError("steady state is defined for static continuous sources")
    return _field_at(src, env, r, math.inf)


def concentration_moving_source(src: SourceSpec, env: Environment, r, t,
                                quadrature_tol: float = DEFAULT_QUADRATURE_TOL) -> float:
    """Field of a continuous source by quadrature of the instant kernel over
    each emission window, cut at the trajectory's knots, to quadrature_tol,
    times the window's rate: the independent check of the closed form of
    concentration_continuous. Outside its trajectory's span the source
    holds the nearest end knot, as Trajectory.points_at does."""
    if src.kind is not SourceKind.CONTINUOUS:
        raise ValueError("concentration_moving_source expects a continuous source")
    t = seconds(t)
    obs = as_position(r).as_array()
    traj = src.trajectory

    def unit_integrand(ss: np.ndarray) -> np.ndarray:
        r0s = src.position.as_array() if traj is None else traj.points_at(ss)
        return unit_instant_kernel(env, r0s, obs, t - ss)

    # The integrand has a kink at every knot; integrating between knots
    # keeps the Richardson estimate from converging falsely across one.
    knots = np.zeros(0) if traj is None else traj.times
    total, bound, failed = 0.0, 0.0, 0
    for begin, end, rate in src.windows:
        hi = min(end, t)
        cuts = [begin, *knots[(knots > begin) & (knots < hi)].tolist(), hi]
        for lo, up in zip(cuts, cuts[1:]):
            try:
                total += rate * adaptive_emission_integral(unit_integrand, lo, up,
                                                           quadrature_tol)
            except QuadratureFailure as exc:
                total, bound = total + rate * exc.estimate, bound + rate * exc.error_bound
                failed += 1
    if failed:
        raise QuadratureFailure(
            f"emission quadrature did not reach rel_tol={quadrature_tol} on {failed} "
            f"pieces (estimate {total}, error bound {bound})",
            estimate=total, error_bound=bound,
        )
    return total


def _source_field(src: SourceSpec, env: Environment, positions: np.ndarray,
                  times: np.ndarray) -> tuple[np.ndarray, list[tuple[int, Exception]]]:
    """One source's field at each (position, time), and the indices that
    failed. An instant release takes the instant kernel; a continuous source
    sums unit_continuous_kernel times rate over its emission windows (a
    trajectory piece by piece, holding its end knots outside its span).
    SingularPoint marks an observer on a source while it emits. A source
    position or trajectory knot outside the region the boundary declares
    raises OutOfDomain: the duct's split bounds hold only inside it."""
    check_inside(env.boundary, src.trajectory.points if src.is_moving
                 else src.position.as_array(), "source point")
    if src.kind is SourceKind.INSTANT:
        r0 = src.point_at(src.start_time)
        return src.strength * unit_instant_kernel(env, r0, positions,
                                                  times - src.start_time), []
    out, singular = np.zeros(times.size), np.zeros(times.size, dtype=bool)
    for begin, end, rate in src.windows:
        if src.trajectory is not None:
            kern = _moving_unit_field(src, env, positions, times, begin, end)
        else:
            kern = unit_continuous_kernel(
                env, src.position.as_array(), positions, times - begin,
                taus_end=None if end == math.inf else np.maximum(times - end, 0.0))
        on_source = np.isinf(kern)
        singular |= on_source
        out += rate * np.where(on_source, 0.0, kern)
    return out, [(int(i), SingularPoint(_ON_SOURCE)) for i in np.flatnonzero(singular)]


def _field_at(src: SourceSpec, env: Environment, r, t: float) -> float:
    """_source_field at one point; its failure is raised."""
    values, failures = _source_field(src, env, as_position(r).as_array()[None, :],
                                     np.array([t]))
    if failures:
        raise failures[0][1]
    return float(values[0])


def evaluate_field(query: FieldQuery, scenario: Scenario,
                   quadrature_tol: float | None = None) -> np.ndarray:
    """Evaluate the scenario's field at every query point.

    Pure and order-independent: permuting the query permutes the results.
    Point-wise failures (an observer on an emitting source) are collected,
    source by source in index order, and raised together as
    FieldEvaluationError with their query indices. A time past a
    trajectory's end is no failure: the source holds its last knot.

    quadrature_tol is ignored, as every source takes a closed form; it
    stays because the benchmark harness (perfbench/layers.py) passes it.
    """
    out = np.zeros(len(query))
    failures: list[tuple[int, Exception]] = []
    for src in scenario.sources:
        values, fails = _source_field(src, scenario.environment, query.positions,
                                      query.times)
        out += values
        failures += fails
    if failures:
        raise FieldEvaluationError(failures)
    return out
