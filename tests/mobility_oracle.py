"""The mobility samplers as they were before every model became a list of
legs: a knot recorder that merges knots within _EPS in time, a wall-bounce
loop for direction and scripted motion, a random walk that folds each step
endpoint into the box, and one sampler per model. Kept as the reference the
leg sampler in `virodyne.mobility` is checked against: identical arrays for
waypoint paths and for every model under WRAP_TO_WAYPOINT, and the same
knots to 1e-9 m for reflected direction, scripted and walk paths.

`leg_waypoint` and `leg_sampler` are the samplers of the leg rule, before
populations became arrays: one round or leg at a time from scalar draws,
each leg laid by `_leg`, the wall rule one leg at a time. `leg_waypoint`
is the reference for a waypoint round whose rounded line meets a wall,
which the reference samplers above never fold or cut, and for the message
and agent of the leg-count refusal. `leg_sampler` is the reference for
walk, direction and scripted paths: the same arrays, reflected or wrapped,
the same skipped near-zero Gaussian triple and the same refusals.
"""

from __future__ import annotations

import math

import numpy as np

from virodyne import mobility
from virodyne.core import as_position
from virodyne.errors import OutOfDomain
from virodyne.mobility import (
    _EPS,
    BoundaryPolicy,
    Box,
    MobilityModel,
    RandomDirection,
    RandomWalk,
    RandomWaypoint,
    Scripted,
    Trajectory,
    _fold,
)


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
    the last knot, laid into the box by the model's boundary policy. The
    wall rule one leg at a time, as `mobility._leg` applies it to arrays
    of legs."""
    t0, p = times[-1], points[-1]
    lo, hi = model.domain.lo, model.domain.hi
    firsts, gaps = [], []  # per moving axis: first wall crossing, then its period
    for k in range(3):
        # an axis moves unless v_k is zero; a first crossing that overflows
        # to inf (a subnormal v_k) never comes
        first = ((hi[k] if v[k] > 0 else lo[k]) - p[k]) / v[k] if v[k] else math.inf
        if first < math.inf:
            firsts.append(max(first, 0.0))
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
    if sum(counts) > mobility._MAX_CROSSINGS:
        raise ValueError(
            f"a {duration:g} s leg at {math.hypot(*v):g} m/s crosses the walls "
            f"{sum(counts)} times, more than {mobility._MAX_CROSSINGS}; shorten the leg, "
            "slow the agent or enlarge the domain")
    crossings = sorted(f + j * g for f, g, n in zip(firsts, gaps, counts)
                       for j in range(n))
    crossings.append(duration)
    folded = _fold(np.asarray(p) + np.outer(crossings, v),
                   model.domain.lo_arr, model.domain.hi_arr)
    for s, x in zip(crossings, folded.tolist()):
        _append(times, points, t0 + s, x)


def _unit_direction(stream: np.random.Generator) -> np.ndarray:
    # Isotropic direction via normalized Gaussian vector.
    while True:
        v = stream.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


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
        target = stream.uniform(model.domain.lo, model.domain.hi)
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


def leg_waypoint(model: MobilityModel, start, horizon: float,
                 stream: np.random.Generator) -> Trajectory:
    """A waypoint path from scalar draws: per round a target, a speed, a
    travel leg unless the target lies within _EPS, then a pause leg, each
    cut at the horizon and laid by `_leg`; refused past `_MAX_LEGS` legs."""
    kind = model.kind
    times, points = [0.0], [as_position(start).as_array().tolist()]
    legs = 0
    while times[-1] < horizon - _EPS:
        target = stream.uniform(model.domain.lo, model.domain.hi)
        speed = stream.uniform(kind.speed_min, kind.speed_max)
        d = target - points[-1]
        dist = float(np.linalg.norm(d))
        rounds = [((0.0, 0.0, 0.0), kind.pause)]
        if dist >= _EPS:
            travel = dist / speed
            rounds.insert(0, ((d / travel).tolist(), travel))
        for v, duration in rounds:
            if times[-1] >= horizon - _EPS:
                break
            _leg(times, points, v, min(duration, horizon - times[-1]), False, model)
            legs += 1
        if legs > mobility._MAX_LEGS:
            raise _too_many_legs(model, times[-1], horizon)
    return Trajectory(np.array(times), np.array(points))


def leg_sampler(model: MobilityModel, start, horizon: float,
                stream: np.random.Generator) -> Trajectory:
    """A walk, direction or scripted path from scalar draws: one leg at a
    time, each cut at the horizon and laid by `_leg`; refused past
    `_MAX_LEGS` legs."""
    kind = model.kind
    times, points = [0.0], [as_position(start).as_array().tolist()]
    legs = 0
    while times[-1] < horizon - _EPS:
        if isinstance(kind, RandomWalk):
            v, duration, hold = (_unit_direction(stream) * kind.step_len
                                 / kind.step_dt).tolist(), kind.step_dt, True
        elif isinstance(kind, RandomDirection):
            v, duration, hold = (_unit_direction(stream) * kind.speed).tolist(), kind.epoch, False
        else:
            v, duration, hold = kind.velocity, math.inf, True
        _leg(times, points, v, min(duration, horizon - times[-1]), hold, model)
        legs += 1
        if legs > mobility._MAX_LEGS:
            raise _too_many_legs(model, times[-1], horizon)
    return Trajectory(np.array(times), np.array(points))


def _too_many_legs(model: MobilityModel, t: float, horizon: float) -> ValueError:
    return ValueError(
        f"a path at up to {model.max_speed:g} m/s takes more than "
        f"{mobility._MAX_LEGS} legs by {t:g} s of {horizon:g} s; "
        "shorten the horizon, lengthen the legs or pauses, slow the agent "
        "or enlarge the domain")
