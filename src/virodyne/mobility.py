"""Stochastic mobility models for agents in a box-shaped scene.

Trajectories are piecewise-linear paths (time-ordered knots with linear
interpolation). A path holds its first knot before its span and its last
after it: an agent or a source stands at its last knot once its path ends.
KnotTable is the one place that rule lives: its points_at reads many paths,
padded into one table, at a batch of times, and Trajectory.points_at is its
one-row case. Fdpde and epidemic read positions from it; channel's closed
form reads the same columns as constant-velocity pieces (Trajectory.pieces).

Every model moves in rounds of constant-velocity legs, each a velocity v,
a duration T and whether a leg cut short at a wall is waited out there.
One sampler, `_paths`, advances a whole population one round at a time as
arrays; `sample_trajectory` is its one-agent case. A model kind gives it
its draws for a block of rounds from each agent's own stream (`_block`)
and the legs of one round as arrays over the agents (`_legs`):

* random walk: u·step_len/step_dt for one step_dt, u a uniform 3-D
  direction; held at a wall under WRAP_TO_WAYPOINT;
* random waypoint: a travel leg to a uniformly drawn target at a uniform
  speed, unless the target lies within _EPS, then a pause leg with v = 0;
* random direction: u·speed for one epoch; under WRAP_TO_WAYPOINT a new
  heading starts at the wall at once;
* scripted: its fixed velocity until the horizon, no draws (to replay a
  prescribed walk-past scenario); held at a wall under WRAP_TO_WAYPOINT.

A leg whose straight line p + v·T stays in the box ends exactly there. The
legs of a round that reach a wall are laid by `_leg`: the line meets the
walls of axis k at s = first_k + j·width_k/|v_k|, j = 0, 1, ..., in closed
form, and only an axis with v_k = 0 is still. Under REFLECT the path is
that line folded into the box by `_fold`, with a knot at every crossing;
under WRAP_TO_WAYPOINT the leg ends at the first crossing. A reflected leg
with more than _MAX_CROSSINGS crossings raises ValueError, and so does a
path of more than _MAX_LEGS legs: a wrapped path that keeps meeting the
walls, or waypoint rounds in a box so small that they take no time and
never reach the horizon. A population refuses with the first such agent
in agent order.

Sampling is a pure function of (model, start, horizon, stream), so identical
streams reproduce identical trajectories no matter how many agents are
sampled concurrently. A sampler owns the stream it is given: it draws a
block of rounds at a time and may draw past the last round it uses, so
nothing else should read that stream afterwards.
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
_ROUND_BLOCK = 8  # rounds drawn at a time from each agent's stream
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


class BoundaryPolicy(enum.Enum):
    REFLECT = "reflect"
    WRAP_TO_WAYPOINT = "wrap_to_waypoint"


class _Heading:
    """A kind whose round is one leg along an isotropic unit direction: a Gaussian
    triple over its norm, a triple of norm at most 1e-12 skipped for the next."""

    def _block(self, streams, head: int, box: Box) -> np.ndarray:
        u = np.array([s.random(head) for s in streams])
        z = np.array([s.normal(size=(_ROUND_BLOCK, 3)) for s in streams])
        for i in np.flatnonzero((_norms(z) <= 1e-12).any(axis=1)).tolist():
            kept = [w for w in z[i] if _norms(w) > 1e-12]
            while len(kept) < _ROUND_BLOCK:
                kept += [w for w in [streams[i].normal(size=3)] if _norms(w) > 1e-12]
            z[i] = kept
        return np.concatenate([u, (z / _norms(z)[..., None]).reshape(len(u), -1)], axis=1)


@dataclass(frozen=True)
class RandomWalk(_Heading):
    step_len: float   # m
    step_dt: float    # s

    def __post_init__(self):
        if not (0 < self.step_len < math.inf and 0 < self.step_dt < math.inf):
            raise ValueError("random walk step length and duration must be finite and > 0")

    @property
    def max_speed(self) -> float:
        return self.step_len / self.step_dt

    def _legs(self, u: np.ndarray, p: np.ndarray) -> list:
        return [(u * self.step_len / self.step_dt, np.full(len(u), self.step_dt), True, None)]


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

    def _block(self, streams, head: int, box: Box) -> np.ndarray:
        # per round a target, then a speed, each lo + (hi - lo)·u as in Generator.uniform
        u = np.array([s.random(head + 4 * _ROUND_BLOCK) for s in streams])
        rounds = u[:, head:].reshape(len(u), _ROUND_BLOCK, 4)
        rounds[..., :3] = box.lo_arr + (box.hi_arr - box.lo_arr) * rounds[..., :3]
        rounds[..., 3] = self.speed_min + (self.speed_max - self.speed_min) * rounds[..., 3]
        return u

    def _legs(self, r: np.ndarray, p: np.ndarray) -> list:
        d = r[:, :3] - p
        dist = _norms(d)
        go = dist >= _EPS
        travel = dist / r[:, 3]
        v = d / np.where(go, travel, 1.0)[:, None]
        return [(v, travel, False, go),
                (np.zeros_like(p), np.full(len(p), self.pause), False, None)]


@dataclass(frozen=True)
class RandomDirection(_Heading):
    speed: float  # m/s
    epoch: float  # s, duration a heading is held

    def __post_init__(self):
        if not (0 < self.speed < math.inf and 0 < self.epoch < math.inf):
            raise ValueError("speed and epoch must be finite and > 0")

    @property
    def max_speed(self) -> float:
        return self.speed

    def _legs(self, u: np.ndarray, p: np.ndarray) -> list:
        return [(u * self.speed, np.full(len(u), self.epoch), False, None)]


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

    def _block(self, streams, head: int, box: Box) -> np.ndarray:
        return np.array([s.random(head) for s in streams])

    def _legs(self, u: np.ndarray, p: np.ndarray) -> list:
        return [(np.broadcast_to(self.velocity, p.shape), np.full(len(p), math.inf), True, None)]


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
        if not (times[1:] > times[:-1]).all():
            raise ValueError("knot times must be strictly increasing")
        times.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

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

    @functools.cached_property
    def pieces(self) -> tuple[np.ndarray, ...]:
        """The path as constant-velocity pieces, one per column of its
        one-row KnotTable: span (start, stop), reference knot (time, point)
        and velocity (the column's slope). Column c runs from its knot to the
        next; column 0 starts at -inf and the last stops at +inf, both held
        still at the end knots. The arrays are shared and read-only."""
        table = self._table
        knots = table._times[1:]
        pieces = (np.append(-math.inf, knots), np.append(knots, math.inf),
                  table._times, table._points, table._slopes)
        for a in pieces:
            a.setflags(write=False)
        return pieces

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


def _norms(d: np.ndarray) -> np.ndarray:
    """|d| over the last axis as np.linalg.norm forms it, a BLAS dot per row."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


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


def _leg(t0: np.ndarray, p: np.ndarray, v: np.ndarray, dur: np.ndarray, first: np.ndarray,
         hold: bool, model: MobilityModel) -> tuple:
    """Lay legs whose straight line reaches a wall before they end: leg i at
    velocity v[i] for dur[i] seconds from the knot (t0[i], p[i]), meeting
    the walls of axis k first at first[i, k], into the box by the model's
    boundary policy. Returns the knots as a list of (leg, time, point, new)
    arrays, in order for each leg, new False where _append lets a knot
    replace the point of the one before, whose time it then takes; each
    leg's last knot (times, points); and {leg: ValueError} for the
    reflected legs refused, which lay no knot."""
    lo, hi = model.domain.lo_arr, model.domain.hi_arr
    legs = np.arange(len(v))
    if model.boundary is BoundaryPolicy.WRAP_TO_WAYPOINT:
        s = first[:, 0]  # the first crossing, as Python's min takes it in axis order
        for k in (1, 2):
            s = np.where(first[:, k] < s, first[:, k], s)
        x = p + v * s[:, None]
        x = np.where(lo > x, lo, x)  # Python's min(max(x, lo), hi)
        x = np.where(hi < x, hi, x)
        new = t0 + s > t0 + _EPS
        knots = [(legs, np.where(new, t0 + s, t0), x, new)]
        if hold:
            new = t0 + dur > knots[0][1] + _EPS
            knots.append((legs, np.where(new, t0 + dur, knots[0][1]), x, new))
        return knots, knots[-1][1], x, {}
    gaps = (hi - lo) / np.where(v != 0, np.abs(v), 1.0)
    counts = np.ceil((dur[:, None] - np.minimum(first, dur[:, None])) / gaps)
    at, times, points, new, ends, refused = [], [], [], [], [t0.tolist(), p.tolist()], {}
    for i, t, q, w, d, f, g, n in zip(legs.tolist(), t0.tolist(), p.tolist(), v.tolist(),
                                      dur.tolist(), first.tolist(), gaps.tolist(), counts.tolist()):
        n = [int(c) for c in n]
        if sum(n) > _MAX_CROSSINGS:
            refused[i] = ValueError(
                f"a {d:g} s leg at {math.hypot(*w):g} m/s crosses the walls {sum(n)} times, "
                f"more than {_MAX_CROSSINGS}; shorten the leg, slow the agent or enlarge "
                "the domain")
            continue
        crossings = sorted(fk + j * gk for fk, gk, nk in zip(f, g, n) for j in range(nk))
        crossings.append(d)
        ts, ps = [t], [q]
        for s, x in zip(crossings, _fold(np.asarray(q) + np.outer(crossings, w), lo, hi).tolist()):
            _append(ts, ps, t + s, x)
        at += [i] * len(ts)
        times += ts
        points += ps
        new += [False] + [True] * (len(ts) - 1)  # the first replaces the leg's start
        ends[0][i], ends[1][i] = ts[-1], ps[-1]
    return ([(np.array(at, dtype=int), np.array(times), np.array(points).reshape(-1, 3),
              np.array(new, dtype=bool))], np.array(ends[0]), np.array(ends[1]), refused)


@np.errstate(over="ignore")  # a first wall crossing that overflows is inf
def _paths(model: MobilityModel, starts: np.ndarray | None, horizon: float,
           streams: Sequence[np.random.Generator]) -> list[Trajectory]:
    """One path over [0, horizon] per stream, from starts (agents, 3), or
    from a start each draws first, mapped as Generator.uniform maps it.

    Agent i draws from streams[i], a block of _ROUND_BLOCK rounds at a time
    (`kind._block`); all agents under way advance one round at a time. A
    round is a list of legs (`kind._legs`): velocities (agents, 3),
    durations (agents,), whether a leg cut short at a wall is waited out
    there, and which agents take it (None: all). Each leg is cut at the
    horizon and kept by _append's rule, or laid by _leg if it meets a wall.
    """
    horizon = float(horizon)
    if horizon < 0 or not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    kind, box, n = model.kind, model.domain, len(streams)
    if not n:
        return []
    lo, hi = box.lo_arr, box.hi_arr
    head = 3 if starts is None else 0
    u = kind._block(streams, head, box)
    p = lo + (hi - lo) * u[:, :3] if starts is None else np.array(starts, dtype=float)
    draws = u[:, head:].reshape(n, _ROUND_BLOCK, -1)
    # One row per agent under way: its agent, last knot (t, p) and legs so far.
    agent, t, legs = np.arange(n), np.zeros(n), np.zeros(n, dtype=int)
    # The knots as they are laid: agents, times, points, and whether each is
    # a new knot or replaces the point of its agent's last knot.
    log = [(agent, t.copy(), p.copy(), np.ones(n, dtype=bool))]
    failed: dict[int, ValueError] = {}  # agent -> why its path is refused

    r = 0  # rounds done
    while True:
        stop = (legs > _MAX_LEGS) | (t >= horizon - _EPS)
        if stop.any() or failed:
            for row in np.flatnonzero(legs > _MAX_LEGS).tolist():
                failed.setdefault(int(agent[row]), ValueError(
                    f"a path at up to {model.max_speed:g} m/s takes more than {_MAX_LEGS} "
                    f"legs by {t[row]:g} s of {horizon:g} s; shorten the horizon, "
                    "lengthen the legs or pauses, slow the agent or enlarge the domain"))
            keep = ~stop
            if failed:  # only an agent before the first refused one can still fail first
                keep &= agent < min(failed)
            agent, t, p, legs, draws = (a[keep] for a in (agent, t, p, legs, draws))
            if not agent.size:
                break
        k = r % _ROUND_BLOCK
        if k == 0 and r:
            draws = kind._block([streams[i] for i in agent.tolist()], 0, box).reshape(
                len(agent), _ROUND_BLOCK, -1)
        for v, dur, hold, mask in kind._legs(draws[:, k], p):
            under = t < horizon - _EPS
            rows = (under if mask is None else under & mask).nonzero()[0]
            if not rows.size:
                continue
            v, dur = v[rows], np.minimum(dur[rows], horizon - t[rows])
            legs[rows] += 1
            moving = v != 0
            if moving.any():
                # the first wall crossing along each axis, as Python's max(first,
                # 0.0); a still axis meets no wall, nor does one whose first
                # crossing overflows to inf (a subnormal v_k)
                first = (np.where(v > 0, hi, lo) - p[rows]) / np.where(moving, v, 1.0)
                first = np.where(moving, np.where(0.0 > first, 0.0, first), np.inf)
                inside = first.min(axis=1) >= dur
                if not inside.all():  # _leg lays the legs that reach a wall
                    wall = ~inside
                    out = rows[wall]
                    knots, t[out], p[out], refused = _leg(
                        t[out], p[out], v[wall], dur[wall], first[wall], hold, model)
                    failed.update({int(agent[out[i]]): exc for i, exc in refused.items()})
                    log += [(agent[out[at]], times, points, new)
                            for at, times, points, new in knots]
                    rows, v, dur = rows[inside], v[inside], dur[inside]
            if rows.size:  # the leg's end, kept by _append's rule
                t0, points = t[rows], p[rows] + v * dur[:, None]
                times = t0 + dur
                new = times > t0 + _EPS
                t[rows], p[rows] = np.where(new, times, t0), points
                log.append((agent[rows], times, points, new))
        r += 1
    if failed:
        raise failed[min(failed)]
    # Each knot takes the time of its first record and the point of its last.
    agents, times, points, new = (np.concatenate(c) for c in zip(*log))
    order = np.argsort(agents, kind="stable")
    new = new[order]
    knots = np.flatnonzero(new)
    times, points = times[order[knots]], points[order[np.append(knots[1:], len(new)) - 1]]
    ends = np.cumsum(np.bincount(agents[order[knots]], minlength=n)).tolist()
    return [Trajectory(times[i:j], points[i:j]) for i, j in zip([0] + ends, ends)]


def sample_population(model: MobilityModel, horizon: float,
                      streams: Sequence[np.random.Generator]) -> list[Trajectory]:
    """One trajectory over [0, horizon] seconds per stream: each agent
    starts at a point drawn uniformly in the box from its own stream, then
    moves on that stream."""
    return _paths(model, None, horizon, streams)


def sample_trajectory(model: MobilityModel, start, horizon: float,
                      stream: np.random.Generator) -> Trajectory:
    """Draw one trajectory over [0, horizon] seconds from the given stream:
    the one-agent case of _paths."""
    p0 = as_position(start).as_array()
    if not model.domain.contains(p0):
        raise OutOfDomain(f"start {tuple(p0)} outside domain {model.domain}")
    return _paths(model, p0[None, :], horizon, [stream])[0]
