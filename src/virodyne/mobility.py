"""Stochastic mobility models for agents in a box-shaped scene.

Trajectories are piecewise-linear paths (time-ordered knots with linear
interpolation) produced by one of four movement rules:

* random walk: fixed-length steps in uniformly random 3-D directions;
* random waypoint: travel to uniformly drawn targets at a random speed,
  pausing between legs;
* random direction: hold a uniformly drawn heading at constant speed for a
  fixed epoch;
* scripted: constant-velocity straight-line motion (useful for replaying a
  prescribed walk-past scenario).

Agents stay inside the domain box. Under the REFLECT policy motion bounces
specularly off the walls; under WRAP_TO_WAYPOINT hitting a wall ends the
current movement leg early and a fresh leg starts at the wall.

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

from .core import Position, as_position
from .errors import OutOfDomain, OutOfRange

_EPS = 1e-9
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
        return stream.uniform(self.lo_arr, self.hi_arr)


class BoundaryPolicy(enum.Enum):
    REFLECT = "reflect"
    WRAP_TO_WAYPOINT = "wrap_to_waypoint"


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

    def position_at(self, t: float) -> Position:
        return Position.from_array(self.point_at(t))

    def point_at(self, t: float) -> np.ndarray:
        """Linear interpolation at time t; OutOfRange outside the span."""
        return self.points_at(np.array([float(t)]))[0]

    def points_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized interpolation for an array of times within the span
        (within _EPS of it, clamped); OutOfRange otherwise."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.times[0] - _EPS or ts.max() > self.times[-1] + _EPS):
            raise OutOfRange("query times outside trajectory span "
                             f"[{self.t_start}, {self.t_end}]")
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


def position_at(trajectory: Trajectory, t: float) -> Position:
    """Interpolated position on a trajectory at time t."""
    return trajectory.position_at(t)


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


class _Recorder:
    """Accumulates knots, skipping duplicates in time."""

    def __init__(self, t0: float, p0: np.ndarray):
        self.times = [float(t0)]
        self.points = [np.array(p0, dtype=float)]

    @property
    def t(self) -> float:
        return self.times[-1]

    @property
    def p(self) -> np.ndarray:
        return self.points[-1]

    def add(self, t: float, p: np.ndarray) -> None:
        if t <= self.times[-1] + _EPS:
            self.points[-1] = np.array(p, dtype=float)
            return
        self.times.append(float(t))
        self.points.append(np.array(p, dtype=float))

    def build(self) -> Trajectory:
        return Trajectory(np.array(self.times), np.vstack(self.points))


def _advance_with_walls(
    rec: _Recorder,
    velocity: np.ndarray,
    duration: float,
    box: Box,
    policy: BoundaryPolicy,
) -> bool:
    """Move at `velocity` for up to `duration`, handling wall hits.

    Returns True if the full duration was spent, False if the leg ended
    early at a wall (WRAP_TO_WAYPOINT).
    """
    lo, hi = box.lo_arr, box.hi_arr
    v = np.array(velocity, dtype=float)
    remaining = float(duration)
    guard = 0
    while remaining > _EPS:
        guard += 1
        if guard > 100000:
            raise RuntimeError("wall-bounce loop failed to terminate")
        p = rec.p
        # First wall crossing along the current heading.
        t_hit = math.inf
        axis_hit = -1
        for k in range(3):
            if v[k] > _EPS:
                t_k = (hi[k] - p[k]) / v[k]
            elif v[k] < -_EPS:
                t_k = (lo[k] - p[k]) / v[k]
            else:
                continue
            if t_k < t_hit:
                t_hit = t_k
                axis_hit = k
        if t_hit >= remaining or axis_hit < 0:
            rec.add(rec.t + remaining, np.clip(p + v * remaining, lo, hi))
            return True
        t_hit = max(t_hit, 0.0)
        rec.add(rec.t + t_hit, np.clip(p + v * t_hit, lo, hi))
        remaining -= t_hit
        if policy is BoundaryPolicy.WRAP_TO_WAYPOINT:
            return False
        v[axis_hit] = -v[axis_hit]
    return True


def _sample_walk(model: MobilityModel, kind: RandomWalk, start: np.ndarray,
                 horizon: float, stream: np.random.Generator) -> Trajectory:
    rec = _Recorder(0.0, start)
    lo, hi = model.domain.lo_arr, model.domain.hi_arr
    t = 0.0
    while t < horizon - _EPS:
        dt = min(kind.step_dt, horizon - t)
        step = _unit_direction(stream) * kind.step_len * (dt / kind.step_dt)
        target = rec.p + step
        if model.domain.contains(target):
            rec.add(t + dt, target)
        elif model.boundary is BoundaryPolicy.REFLECT:
            rec.add(t + dt, _fold(target, lo, hi))
        else:
            # Truncate the step at the first wall; the next step starts there.
            speed = np.linalg.norm(step) / dt
            if speed > 0:
                _advance_with_walls(rec, step / dt, dt, model.domain, model.boundary)
                # _advance_with_walls may stop early; bring time up to t+dt.
                rec.add(t + dt, rec.p)
            else:
                rec.add(t + dt, rec.p)
        t += dt
    return rec.build()


def _sample_waypoint(model: MobilityModel, kind: RandomWaypoint, start: np.ndarray,
                     horizon: float, stream: np.random.Generator) -> Trajectory:
    rec = _Recorder(0.0, start)
    while rec.t < horizon - _EPS:
        target = model.domain.sample_point(stream)
        speed = stream.uniform(kind.speed_min, kind.speed_max)
        dist = float(np.linalg.norm(target - rec.p))
        if dist < _EPS:
            travel = 0.0
            v = np.zeros(3)
        else:
            travel = dist / speed
            v = (target - rec.p) / travel
        leg = min(travel, horizon - rec.t)
        if leg > _EPS:
            rec.add(rec.t + leg, rec.p + v * leg)
        if rec.t >= horizon - _EPS:
            break
        if kind.pause > 0:
            dwell = min(kind.pause, horizon - rec.t)
            rec.add(rec.t + dwell, rec.p)
    return rec.build()


def _sample_direction(model: MobilityModel, kind: RandomDirection, start: np.ndarray,
                      horizon: float, stream: np.random.Generator) -> Trajectory:
    rec = _Recorder(0.0, start)
    while rec.t < horizon - _EPS:
        v = _unit_direction(stream) * kind.speed
        leg = min(kind.epoch, horizon - rec.t)
        _advance_with_walls(rec, v, leg, model.domain, model.boundary)
    return rec.build()


def _sample_scripted(model: MobilityModel, kind: Scripted, start: np.ndarray,
                     horizon: float, stream: np.random.Generator) -> Trajectory:
    rec = _Recorder(0.0, start)
    v = np.asarray(kind.velocity, dtype=float)
    if np.linalg.norm(v) < _EPS:
        rec.add(horizon, rec.p)
        return rec.build()
    while rec.t < horizon - _EPS:
        full = _advance_with_walls(rec, v, horizon - rec.t, model.domain, model.boundary)
        if not full:
            # WRAP policy on a scripted path: hold position at the wall.
            rec.add(horizon, rec.p)
    return rec.build()


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
    if horizon == 0:
        return Trajectory(np.array([0.0]), p0[None, :])
    kind = model.kind
    if isinstance(kind, RandomWalk):
        return _sample_walk(model, kind, p0, horizon, stream)
    if isinstance(kind, RandomWaypoint):
        return _sample_waypoint(model, kind, p0, horizon, stream)
    if isinstance(kind, RandomDirection):
        return _sample_direction(model, kind, p0, horizon, stream)
    if isinstance(kind, Scripted):
        return _sample_scripted(model, kind, p0, horizon, stream)
    raise TypeError(f"unknown mobility kind: {kind!r}")
