"""Stochastic mobility models for agents in a box-shaped scene.

Trajectories are piecewise-linear paths (time-ordered knots with linear
interpolation). A path holds its first knot before its span and its last
after it: an agent or a source stands at its last knot once its path ends.
Trajectory.points_at is the one place that rule lives; channel, fdpde and
epidemic read positions from it (channel's closed form restates it piece by
piece).

Every model moves by one rule: it says what its next legs are, each a
velocity v, a duration T and whether a leg cut short at a wall is waited
out there, and one routine lays each leg into the box.

* random walk: u·step_len/step_dt for one step_dt, u a uniform 3-D
  direction; held at a wall under WRAP_TO_WAYPOINT;
* random waypoint: a travel leg to a uniformly drawn target at a uniform
  speed, then a pause leg with v = 0; it never meets a wall;
* random direction: u·speed for one epoch; under WRAP_TO_WAYPOINT a new
  heading starts at the wall at once;
* scripted: its fixed velocity until the horizon (useful for replaying a
  prescribed walk-past scenario); held at a wall under WRAP_TO_WAYPOINT.

The straight line p + v·s of a leg meets the walls of axis k at
s = first_k + j·width_k/|v_k|, j = 0, 1, ..., found in closed form. Under
REFLECT the path is that line folded into the box by `_fold`, with a knot
at every crossing; under WRAP_TO_WAYPOINT the leg ends at the first
crossing. A leg that crosses no wall ends exactly at p + v·T. A reflected
leg with more than _MAX_CROSSINGS crossings raises ValueError, and so does a
wrapped path that hits the walls more than _MAX_CROSSINGS times.

Sampling is a pure function of (model, start, horizon, stream), so identical
streams reproduce identical trajectories no matter how many agents are
sampled concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import as_position
from .errors import OutOfDomain

_EPS = 1e-9
_MAX_CROSSINGS = 100_000  # wall crossings of one reflected leg or wrapped path
_STILL = (0.0, 0.0, 0.0)
_CONTAINS_TOL = 1e-7  # m, slack of Box.contains at the walls


@dataclass(frozen=True)
class Box:
    """Axis-aligned domain box, meters."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if not (hi > lo).all():
            raise ValueError(f"degenerate box: lo={self.lo}, hi={self.hi}")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))

    @property
    def lo_arr(self) -> np.ndarray:
        return np.array(self.lo)

    @property
    def hi_arr(self) -> np.ndarray:
        return np.array(self.hi)

    def contains(self, point: np.ndarray) -> bool:
        """Whether the point lies in the box, walls widened by _CONTAINS_TOL."""
        p = np.asarray(point, dtype=float)
        return bool((p >= self.lo_arr - _CONTAINS_TOL).all()
                    and (p <= self.hi_arr + _CONTAINS_TOL).all())

    def sample_point(self, stream: np.random.Generator) -> np.ndarray:
        return stream.uniform(self.lo, self.hi)


class BoundaryPolicy(enum.Enum):
    REFLECT = "reflect"
    WRAP_TO_WAYPOINT = "wrap_to_waypoint"


# Each kind's `_legs(p, domain, stream)` draws its next legs from position p:
# (velocity, duration, whether a leg cut short at a wall is waited out there).

@dataclass(frozen=True)
class RandomWalk:
    step_len: float   # m
    step_dt: float    # s

    def __post_init__(self):
        if not (0 < self.step_len < math.inf and 0 < self.step_dt < math.inf):
            raise ValueError("random walk step length and duration must be finite and > 0")

    @property
    def max_speed(self) -> float:
        return self.step_len / self.step_dt

    def _legs(self, p, domain: Box, stream: np.random.Generator) -> list:
        v = _unit_direction(stream) * self.step_len / self.step_dt
        return [(v.tolist(), self.step_dt, True)]


@dataclass(frozen=True)
class RandomWaypoint:
    speed_min: float  # m/s
    speed_max: float
    pause: float      # s, dwell at each waypoint

    def __post_init__(self):
        if not (0 < self.speed_min <= self.speed_max < math.inf):
            raise ValueError("need 0 < speed_min <= speed_max < inf")
        if not 0 <= self.pause < math.inf:
            raise ValueError("pause must be finite and >= 0")

    @property
    def max_speed(self) -> float:
        return self.speed_max

    def _legs(self, p, domain: Box, stream: np.random.Generator) -> list:
        target = domain.sample_point(stream)
        speed = stream.uniform(self.speed_min, self.speed_max)
        d = target - p
        dist = float(np.linalg.norm(d))
        if dist < _EPS:
            return [(_STILL, self.pause, False)]
        travel = dist / speed
        return [((d / travel).tolist(), travel, False),
                (_STILL, self.pause, False)]


@dataclass(frozen=True)
class RandomDirection:
    speed: float  # m/s
    epoch: float  # s, duration a heading is held

    def __post_init__(self):
        if not (0 < self.speed < math.inf and 0 < self.epoch < math.inf):
            raise ValueError("speed and epoch must be finite and > 0")

    @property
    def max_speed(self) -> float:
        return self.speed

    def _legs(self, p, domain: Box, stream: np.random.Generator) -> list:
        return [((_unit_direction(stream) * self.speed).tolist(), self.epoch, False)]


@dataclass(frozen=True)
class Scripted:
    """Constant-velocity straight-line motion."""

    velocity: tuple[float, float, float]  # m/s

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float)
        if not np.isfinite(v).all():
            raise ValueError("scripted velocity must be finite")
        object.__setattr__(self, "velocity", tuple(float(c) for c in v))

    @property
    def max_speed(self) -> float:
        return float(np.linalg.norm(self.velocity))

    def _legs(self, p, domain: Box, stream: np.random.Generator) -> list:
        return [(self.velocity, math.inf, True)]


ModelKind = Union[RandomWalk, RandomWaypoint, RandomDirection, Scripted]


@dataclass(frozen=True)
class MobilityModel:
    kind: ModelKind
    domain: Box
    boundary: BoundaryPolicy = BoundaryPolicy.REFLECT

    @property
    def max_speed(self) -> float:
        return self.kind.max_speed


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path: strictly increasing times, one 3-D point each."""

    times: np.ndarray   # (K,)
    points: np.ndarray  # (K, 3)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if times.ndim != 1 or points.shape != (times.size, 3):
            raise ValueError("need times (K,) and points (K, 3)")
        if times.size == 0:
            raise ValueError("trajectory needs at least one knot")
        if not np.isfinite(times).all() or not np.isfinite(points).all():
            raise ValueError("trajectory knots must be finite")
        if times.size > 1 and not (np.diff(times) > 0).all():
            raise ValueError("knot times must be strictly increasing")
        times.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def point_at(self, t: float) -> np.ndarray:
        """Where the path is at time t (see points_at)."""
        return self.points_at(np.array([float(t)]))[0]

    def points_at(self, ts: np.ndarray) -> np.ndarray:
        """Linear interpolation between the knots at an array of times. A
        path holds its first knot before its span and its last after it."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty((ts.size, 3))
        for k in range(3):
            out[:, k] = np.interp(ts, self.times, self.points[:, k])
        return out

    @classmethod
    def static(cls, position, t0: float = 0.0, t1: float | None = None) -> "Trajectory":
        p = as_position(position).as_array()
        if t1 is None:
            return cls(np.array([t0]), p[None, :])
        return cls(np.array([t0, t1]), np.vstack([p, p]))

    @classmethod
    def straight_line(cls, start, velocity, t0: float, t1: float) -> "Trajectory":
        p0 = as_position(start).as_array()
        v = np.asarray(velocity, dtype=float)
        return cls(np.array([t0, t1]), np.vstack([p0, p0 + v * (t1 - t0)]))


def _unit_direction(stream: np.random.Generator) -> np.ndarray:
    # Isotropic direction via normalized Gaussian vector.
    while True:
        v = stream.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def _fold(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Reflect a point into [lo, hi] per axis (triangle-wave fold)."""
    width = hi - lo
    y = np.mod(x - lo, 2.0 * width)
    y = np.where(y > width, 2.0 * width - y, y)
    return lo + y


def _append(times: list, points: list, t: float, x) -> None:
    """Add a knot; one within _EPS of the last knot's time replaces its point."""
    if t <= times[-1] + _EPS:
        points[-1] = x
    else:
        times.append(t)
        points.append(x)


def _leg(times: list, points: list, v, duration: float, hold: bool,
         model: MobilityModel) -> bool:
    """Append the knots of one leg: velocity v for `duration` seconds from
    the last knot, laid into the box by the model's boundary policy. True
    when a wrapped leg was cut short at a wall."""
    t0, p = times[-1], points[-1]
    lo, hi = model.domain.lo, model.domain.hi
    firsts, gaps = [], []  # per moving axis: first wall crossing, then its period
    for k in range(3):
        if abs(v[k]) > _EPS:
            firsts.append(max(((hi[k] if v[k] > 0 else lo[k]) - p[k]) / v[k], 0.0))
            gaps.append((hi[k] - lo[k]) / abs(v[k]))
    s = min(firsts, default=math.inf)
    if s >= duration:
        _append(times, points, t0 + duration,
                (p[0] + v[0] * duration, p[1] + v[1] * duration, p[2] + v[2] * duration))
        return False
    if model.boundary is BoundaryPolicy.WRAP_TO_WAYPOINT:
        x = tuple(min(max(p[k] + v[k] * s, lo[k]), hi[k]) for k in range(3))
        _append(times, points, t0 + s, x)
        if hold:
            _append(times, points, t0 + duration, x)
        return True
    counts = [max(0, math.ceil((duration - f) / g)) for f, g in zip(firsts, gaps)]
    if sum(counts) > _MAX_CROSSINGS:
        raise ValueError(
            f"a {duration:g} s leg at {math.hypot(*v):g} m/s crosses the walls "
            f"{sum(counts)} times, more than {_MAX_CROSSINGS}; shorten the leg, "
            "slow the agent or enlarge the domain")
    crossings = sorted(f + j * g for f, g, n in zip(firsts, gaps, counts)
                       for j in range(n))
    crossings.append(duration)
    folded = _fold(np.asarray(p) + np.outer(crossings, v),
                   model.domain.lo_arr, model.domain.hi_arr)
    for s, x in zip(crossings, folded.tolist()):
        _append(times, points, t0 + s, x)
    return False


def sample_trajectory(
    model: MobilityModel,
    start,
    horizon: float,
    stream: np.random.Generator,
) -> Trajectory:
    """Draw one trajectory over [0, horizon] seconds from the given stream."""
    p0 = as_position(start).as_array()
    if not model.domain.contains(p0):
        raise OutOfDomain(f"start {tuple(p0)} outside domain {model.domain}")
    horizon = float(horizon)
    if horizon < 0 or not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    times, points = [0.0], [p0.tolist()]
    hits = 0  # walls met by a wrapped path
    while times[-1] < horizon - _EPS:
        for v, duration, hold in model.kind._legs(points[-1], model.domain, stream):
            if times[-1] >= horizon - _EPS:
                break
            hits += _leg(times, points, v, min(duration, horizon - times[-1]), hold, model)
        if hits > _MAX_CROSSINGS:
            raise ValueError(
                f"a wrapped path at up to {model.max_speed:g} m/s hits the walls "
                f"more than {_MAX_CROSSINGS} times by {times[-1]:g} s of {horizon:g} s; "
                "shorten the horizon, slow the agent or enlarge the domain")
    return Trajectory(np.array(times), np.array(points))
