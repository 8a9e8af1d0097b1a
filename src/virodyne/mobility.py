"""Stochastic mobility models for agents in a box-shaped scene.

Trajectories are piecewise-linear paths (time-ordered knots with linear
interpolation). A path holds its first knot before its span and its last
after it: an agent or a source stands at its last knot once its path ends.
KnotTable.points_at is the one place that rule lives: it reads many paths,
padded into one table, at a batch of times, and Trajectory.points_at is its
one-row case. Channel, fdpde and epidemic read positions from it
(channel's closed form restates the rule piece by piece).

Every model moves in constant-velocity legs, each a velocity v, a duration
T and whether a leg cut short at a wall is waited out there, and one
routine, `_leg`, lays a leg into the box.

* random walk: u·step_len/step_dt for one step_dt, u a uniform 3-D
  direction; held at a wall under WRAP_TO_WAYPOINT;
* random waypoint: rounds of a travel leg to a uniformly drawn target at a
  uniform speed, then a pause leg with v = 0. `_waypoint_paths` advances a
  whole population one round at a time as arrays; a round never meets a
  wall, unless rounding carries its line onto one, and that round takes
  `_leg` for its agent;
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
path of more than _MAX_LEGS legs: a wrapped path that keeps meeting the
walls, or waypoint rounds in a box so small that they take no time and
never reach the horizon. A population refuses with the first such agent
in agent order.

Sampling is a pure function of (model, start, horizon, stream), so identical
streams reproduce identical trajectories no matter how many agents are
sampled concurrently. A sampler owns the stream it is given: the waypoint
sampler draws a block of rounds at a time and may draw past the last round
it uses, so nothing else should read that stream afterwards.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import as_position
from .errors import OutOfDomain

_EPS = 1e-9
_MAX_CROSSINGS = 100_000  # wall crossings of one reflected leg
_MAX_LEGS = 100_000  # legs of one path, each wall hit of a wrapped path included
_ROUND_BLOCK = 4  # waypoint rounds drawn at a time from each agent's stream
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


# Walk, direction and scripted motion draw one leg at a time: `_next_leg(stream)`
# gives (velocity, duration, whether a leg cut short at a wall is waited out
# there). Waypoint rounds are sampled for a whole population by _waypoint_paths.

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

    def _next_leg(self, stream: np.random.Generator) -> tuple:
        v = _unit_direction(stream) * self.step_len / self.step_dt
        return v.tolist(), self.step_dt, True


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

    def _next_leg(self, stream: np.random.Generator) -> tuple:
        return (_unit_direction(stream) * self.speed).tolist(), self.epoch, False


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

    def _next_leg(self, stream: np.random.Generator) -> tuple:
        return self.velocity, math.inf, True


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
        """Linear interpolation between the knots at an array of times, (T, 3).
        A path holds its first knot before its span and its last after it:
        the one-row case of KnotTable.points_at."""
        return self._table.points_at(ts)[0]

    @functools.cached_property
    def _table(self) -> "KnotTable":
        return KnotTable([self])

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


class KnotTable:
    """Many piecewise-linear paths as arrays, read at a batch of times at once.

    Row i holds the knots of trajectories[i], padded to the longest path by
    repeating its last knot. Column 0 repeats the first knot; column c > 0
    holds knot c - 1. A row is read at time t from the column c of the last
    knot at or before t (c = 0 before the span), by np.interp's formula
    p_c + s_c·(t - t_c) with s_c = (p_{c+1} - p_c)/(t_{c+1} - t_c), and at a
    knot time as that knot itself. The held ends are slopes too: +0 in
    column 0 and -0 from the last knot on, so that p + s·(t - t_c) adds a
    zero of p's own sign before and after the span. Every value then equals
    np.interp's bit for bit. Memory is rows x (knots + times).
    """

    def __init__(self, trajectories: Sequence[Trajectory]):
        sizes = np.array([tr.times.size for tr in trajectories])
        column = np.maximum(np.arange(sizes.max() + 1) - 1, 0)
        take = (np.cumsum(sizes) - sizes)[:, None] + np.minimum(column, sizes[:, None] - 1)
        times = np.concatenate([tr.times for tr in trajectories])[take]
        points = np.concatenate([tr.points for tr in trajectories])[take]
        slopes = np.zeros_like(points)
        slopes[:, 1:] = -0.0
        dt = (times[:, 2:] - times[:, 1:-1])[..., None]
        np.divide(points[:, 2:] - points[:, 1:-1], dt, out=slopes[:, 1:-1], where=dt > 0)
        # All rows are searched at once. Knot t_k lies at or before t exactly
        # when rank(t_k) <= rank(t), a rank counting the table's knot times at
        # or before a time; row r's ranks are offset by r·(knots + 1), so that
        # one sorted key array holds every row.
        knots = times[:, 1:]
        self._sorted = np.sort(knots, axis=None)
        self._rows = np.arange(sizes.size)
        self._row_keys = (self._sorted.size + 1) * self._rows
        self._keys = (np.searchsorted(self._sorted, knots, side="right")
                      + self._row_keys[:, None]).ravel()
        self._times, self._points = times.ravel(), points.reshape(-1, 3)
        self._slopes = slopes.reshape(-1, 3)

    def points_at(self, ts: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Each row's points at times ts, (rows, T, 3); rows are table row
        indices, all of them by default."""
        ts = np.asarray(ts, dtype=float).ravel()
        rows = self._rows if rows is None else np.asarray(rows)
        # Keys at or below a row's query count the knots of the rows before
        # it and its own up to t, so adding the row's column 0s gives the
        # flat index of (row, c).
        query = self._row_keys[rows][:, None] + self._sorted.searchsorted(ts, "right")
        at = self._keys.searchsorted(query, "right") + rows[:, None]
        t_c, p_c = self._times[at], self._points.take(at, axis=0)
        out = self._slopes.take(at, axis=0)
        out *= (ts - t_c)[..., None]
        out += p_c
        np.copyto(out, p_c, where=(ts == t_c)[..., None])
        return out


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
         model: MobilityModel) -> None:
    """Append the knots of one leg: velocity v for `duration` seconds from
    the last knot, laid into the box by the model's boundary policy."""
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
        return
    if model.boundary is BoundaryPolicy.WRAP_TO_WAYPOINT:
        x = tuple(min(max(p[k] + v[k] * s, lo[k]), hi[k]) for k in range(3))
        _append(times, points, t0 + s, x)
        if hold:
            _append(times, points, t0 + duration, x)
        return
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


def _checked_horizon(horizon) -> float:
    horizon = float(horizon)
    if horizon < 0 or not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    return horizon


def _too_many_legs(model: MobilityModel, t: float, horizon: float) -> ValueError:
    return ValueError(
        f"a path at up to {model.max_speed:g} m/s takes more than {_MAX_LEGS} "
        f"legs by {t:g} s of {horizon:g} s; shorten the horizon, "
        "lengthen the legs or pauses, slow the agent or enlarge the domain")


def _waypoint_paths(model: MobilityModel, starts: np.ndarray | None, horizon: float,
                    streams: Sequence[np.random.Generator]) -> list[Trajectory]:
    """Random-waypoint paths, one per stream, from starts (agents, 3), or
    from a start each draws first when starts is None.

    Agent i's uniforms come from streams[i] in blocks of _ROUND_BLOCK
    rounds, four per round: the target's three coordinates, then the
    speed, each lo + (hi - lo)·u as Generator.uniform computes it. All
    agents then advance one round at a time as arrays: a travel leg to the
    target unless it lies within _EPS, then a pause leg, each cut at the
    horizon and kept by _append's rule. A travel leg whose rounded line
    meets a wall before its end takes _leg instead, as a single agent.
    """
    kind, box, n = model.kind, model.domain, len(streams)
    lo, hi = box.lo_arr, box.hi_arr

    def rounds(u):
        """Targets and speeds of the rounds of a block of uniforms."""
        u = u.reshape(len(u), _ROUND_BLOCK, 4)
        return (lo + (hi - lo) * u[..., :3],
                kind.speed_min + (kind.speed_max - kind.speed_min) * u[..., 3])

    head = 3 if starts is None else 0
    u = np.stack([s.random(head + 4 * _ROUND_BLOCK) for s in streams])
    p = lo + (hi - lo) * u[:, :3] if starts is None else np.array(starts, dtype=float)
    targets, speeds = rounds(u[:, head:])
    # One row per agent still under way: its agent, its last knot (t, p)
    # and where it is kept, its legs so far and its kept knots.
    agent, t = np.arange(n), np.zeros(n)
    last, legs = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    store_t, store_p = np.zeros((n, 8)), np.repeat(p[:, None], 8, axis=1)
    paths: list = [None] * n
    failed: dict[int, float] = {}  # agent -> its clock when it passed _MAX_LEGS

    def knot(rows, times, points):
        """Keep knots as _append does: one within _EPS of the row's last
        knot replaces that knot's point."""
        nonlocal store_t, store_p
        new = times > t[rows] + _EPS
        t[rows] = times = np.where(new, times, t[rows])
        p[rows] = points
        last[rows] = at = last[rows] + new
        if at.size and at.max() == store_t.shape[1]:
            store_t = np.concatenate([store_t, np.empty_like(store_t)], axis=1)
            store_p = np.concatenate([store_p, np.empty_like(store_p)], axis=1)
        store_t[rows, at], store_p[rows, at] = times, points

    r = 0  # rounds done
    while True:
        stop = (legs > _MAX_LEGS) | (t >= horizon - _EPS)
        if stop.any():
            for row in np.flatnonzero(stop).tolist():
                if legs[row] > _MAX_LEGS:
                    failed[int(agent[row])] = float(t[row])
                else:
                    c = last[row] + 1
                    paths[agent[row]] = Trajectory(store_t[row, :c].copy(),
                                                   store_p[row, :c].copy())
            keep = ~stop
            if failed:  # only an agent before the first refused one can still fail first
                keep &= agent < min(failed)
            agent, t, p, last, legs, targets, speeds, store_t, store_p = (
                a[keep] for a in (agent, t, p, last, legs, targets, speeds, store_t, store_p))
            if not agent.size:
                break
        k = r % _ROUND_BLOCK
        if k == 0 and r:
            targets, speeds = rounds(np.stack([streams[i].random(4 * _ROUND_BLOCK)
                                               for i in agent.tolist()]))
        d = targets[:, k] - p
        # |d| as np.linalg.norm forms it, a BLAS dot per agent
        dist = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
        go = np.flatnonzero(dist >= _EPS)
        if go.size:
            travel = dist[go] / speeds[go, k]
            v = d[go] / travel[:, None]
            dur = np.minimum(travel, horizon - t[go])
            # _leg's first wall crossing along each moving axis
            moving = np.abs(v) > _EPS
            reach = (np.where(v > 0, hi, lo) - p[go]) / np.where(moving, v, 1.0)
            inside = np.where(moving, np.maximum(reach, 0.0), np.inf).min(axis=1) >= dur
            rows = go[inside]
            knot(rows, t[rows] + dur[inside], p[rows] + v[inside] * dur[inside, None])
            for j in np.flatnonzero(~inside).tolist():
                row = go[j:j + 1]
                times, points = [float(t[row[0]])], [p[row[0]].tolist()]
                _leg(times, points, v[j].tolist(), float(dur[j]), False, model)
                for tk, pk in zip(times, points):  # the first merges into the last knot
                    knot(row, np.array([tk]), np.array([pk], dtype=float))
            legs[go] += 1
        rest = np.flatnonzero(t < horizon - _EPS)
        dur = np.minimum(kind.pause, horizon - t[rest])
        # a pause is a leg at v = 0, whose end _leg forms as p + 0·dur
        knot(rest, t[rest] + dur, p[rest] + 0.0 * dur[:, None])
        legs[rest] += 1
        r += 1
    if failed:
        i = min(failed)
        raise _too_many_legs(model, failed[i], horizon)
    return paths


def sample_population(model: MobilityModel, horizon: float,
                      streams: Sequence[np.random.Generator]) -> list[Trajectory]:
    """One trajectory over [0, horizon] seconds per stream: each agent
    starts at a point drawn uniformly in the box from its own stream, then
    moves on that stream. Waypoint populations are drawn as arrays."""
    horizon = _checked_horizon(horizon)
    if isinstance(model.kind, RandomWaypoint) and streams:
        return _waypoint_paths(model, None, horizon, streams)
    return [sample_trajectory(model, model.domain.sample_point(s), horizon, s)
            for s in streams]


def sample_trajectory(
    model: MobilityModel,
    start,
    horizon: float,
    stream: np.random.Generator,
) -> Trajectory:
    """Draw one trajectory over [0, horizon] seconds from the given stream.
    A waypoint path is the one-agent case of _waypoint_paths."""
    p0 = as_position(start).as_array()
    if not model.domain.contains(p0):
        raise OutOfDomain(f"start {tuple(p0)} outside domain {model.domain}")
    horizon = _checked_horizon(horizon)
    if isinstance(model.kind, RandomWaypoint):
        return _waypoint_paths(model, p0[None, :], horizon, [stream])[0]
    times, points = [0.0], [p0.tolist()]
    legs = 0
    while times[-1] < horizon - _EPS:
        v, duration, hold = model.kind._next_leg(stream)
        _leg(times, points, v, min(duration, horizon - times[-1]), hold, model)
        legs += 1
        if legs > _MAX_LEGS:
            raise _too_many_legs(model, times[-1], horizon)
    return Trajectory(np.array(times), np.array(points))
