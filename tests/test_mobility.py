from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mobility_oracle
from virodyne import mobility
from virodyne.core import rng_stream
from virodyne.errors import OutOfDomain
from virodyne.mobility import (
    BoundaryPolicy,
    Box,
    KnotTable,
    MobilityModel,
    RandomDirection,
    RandomWalk,
    RandomWaypoint,
    Scripted,
    Trajectory,
    _fold,
    sample_population,
    sample_trajectory,
)

BIG_BOX = Box(lo=(-1e6, -1e6, -1e6), hi=(1e6, 1e6, 1e6))
ROOM = Box(lo=(0, 0, 0), hi=(20, 15, 3))
HALL = Box(lo=(0, 0, 0), hi=(80, 30, 3))


def _all_models():
    return [
        RandomWalk(step_len=0.5, step_dt=1.0),
        RandomWaypoint(speed_min=0.5, speed_max=2.0, pause=1.5),
        RandomDirection(speed=1.2, epoch=4.0),
        Scripted(velocity=(0.7, -0.3, 0.1)),
    ]


class TestTrajectory:
    def test_single_knot_horizon_zero(self):
        model = MobilityModel(RandomWalk(1.0, 1.0), ROOM)
        traj = sample_trajectory(model, (5, 5, 1), 0.0, rng_stream(0, 0))
        assert traj.times.size == 1
        assert traj.point_at(0.0) == pytest.approx([5, 5, 1])

    def test_knot_and_midpoint_interpolation(self):
        traj = Trajectory(np.array([0.0, 2.0]), np.array([[0, 0, 0], [4, 2, 0]]))
        assert traj.point_at(2.0) == pytest.approx([4, 2, 0])
        assert traj.point_at(1.0) == pytest.approx([2, 1, 0])

    def test_constant_velocity_identity(self):
        v = np.array([1.5, -0.5, 0.25])
        traj = Trajectory.straight_line((1, 2, 3), v, 0.0, 8.0)
        for t in (0.0, 1.7, 4.2, 8.0):
            expect = np.array([1, 2, 3]) + v * t
            assert traj.point_at(t) == pytest.approx(expect)

    def test_held_ends(self):
        traj = Trajectory.straight_line((1, 2, 3), (1.0, -2.0, 0.5), 1.0, 5.0)
        first, last = traj.points[0], traj.points[-1]
        for t in (5.1, 5.0 + 1e-12, 1e9):
            assert np.array_equal(traj.point_at(t), last)
        for t in (0.9, 1.0 - 1e-12, -1e9):
            assert np.array_equal(traj.point_at(t), first)
        assert np.array_equal(traj.points_at([-1.0, 3.0, 9.0]),
                              [first, traj.point_at(3.0), last])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_points_at_is_interp_inside_and_ends_outside(self, knots, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.01, 5.0, knots)) - rng.uniform(0, 10)
        traj = Trajectory(times, rng.normal(0, 10, (knots, 3)))
        inside = rng.uniform(times[0], times[-1], 20)
        inside[:2] = times[0], times[-1]
        want = np.column_stack([np.interp(inside, times, traj.points[:, k])
                                for k in range(3)])
        assert traj.points_at(inside).tobytes() == want.tobytes()
        span = times[-1] - times[0] + 1.0
        before = times[0] - rng.uniform(1e-12, 1.0, 5) * span
        after = times[-1] + rng.uniform(1e-12, 1.0, 5) * span
        assert np.array_equal(traj.points_at(before), np.tile(traj.points[0], (5, 1)))
        assert np.array_equal(traj.points_at(after), np.tile(traj.points[-1], (5, 1)))

    def test_strictly_increasing_times_required(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)))

    @staticmethod
    def _pieces_reference(traj):
        # The constant-velocity pieces as channel once built them itself:
        # still first and last pieces at the end knots, np.diff slopes between.
        ts, ps = traj.times, traj.points
        vel = np.zeros((ts.size + 1, 3))
        vel[1:-1] = np.diff(ps, axis=0) / np.diff(ts)[:, None]
        return (np.concatenate([[-np.inf], ts]), np.concatenate([ts, [np.inf]]),
                np.concatenate([ts[:1], ts]), np.vstack([ps[:1], ps]), vel)

    @pytest.mark.parametrize("seed", range(12))
    def test_pieces_are_the_knot_table_columns(self, seed):
        # Paths of 1 to 6 knots, some coordinates -0.0. The one difference
        # from the reference is the last piece's velocity: the table's held
        # end is the slope -0.0.
        rng = np.random.default_rng(seed)
        for size in [1, *rng.integers(1, 7, 5)]:
            times = np.cumsum(rng.uniform(0.01, 5.0, size)) - rng.uniform(0, 10)
            points = rng.normal(0, 10, (size, 3))
            points[rng.random((size, 3)) < 0.2] = -0.0
            traj = Trajectory(times, points)
            got, want = traj.pieces, self._pieces_reference(traj)
            for a, b in zip(got[:4], want[:4]):
                assert a.tobytes() == b.tobytes()
            assert got[4][:-1].tobytes() == want[4][:-1].tobytes()
            assert got[4][-1].tobytes() == np.full(3, -0.0).tobytes()
            assert traj.pieces is got  # cached, so shared and read-only
            assert not any(a.flags.writeable for a in got)


class TestSampling:
    def test_start_outside_domain(self):
        model = MobilityModel(RandomWalk(1.0, 1.0), ROOM)
        with pytest.raises(OutOfDomain):
            sample_trajectory(model, (30, 5, 1), 10.0, rng_stream(0, 0))

    @pytest.mark.parametrize("kind", _all_models())
    def test_determinism(self, kind):
        model = MobilityModel(kind, ROOM)
        a = sample_trajectory(model, (5, 5, 1), 60.0, rng_stream(9, 3))
        b = sample_trajectory(model, (5, 5, 1), 60.0, rng_stream(9, 3))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("kind", _all_models())
    @pytest.mark.parametrize("policy", list(BoundaryPolicy))
    def test_containment(self, kind, policy):
        model = MobilityModel(kind, ROOM, boundary=policy)
        for seed in range(5):
            traj = sample_trajectory(model, (19.5, 14.5, 2.9), 120.0,
                                     rng_stream(seed, 0))
            assert (traj.points >= ROOM.lo_arr - 1e-9).all()
            assert (traj.points <= ROOM.hi_arr + 1e-9).all()
            # interpolated points stay inside too (convexity spot check)
            for t in np.linspace(0, 120, 77):
                p = traj.point_at(t)
                assert ROOM.contains(p)

    @pytest.mark.parametrize("kind", _all_models())
    def test_speed_bound(self, kind):
        model = MobilityModel(kind, ROOM)
        vmax = model.max_speed
        traj = sample_trajectory(model, (10, 7, 1.5), 200.0, rng_stream(4, 1))
        dt = np.diff(traj.times)
        dp = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        assert (dp / dt <= vmax * (1 + 1e-9)).all()

    def test_trajectory_spans_horizon(self):
        for kind in _all_models():
            model = MobilityModel(kind, ROOM)
            traj = sample_trajectory(model, (3, 3, 1), 45.0, rng_stream(1, 1))
            assert traj.t_start == 0.0
            assert traj.t_end == pytest.approx(45.0)

    def test_random_walk_msd_matches_theory(self):
        # Mean-squared displacement after n isotropic steps of length L is
        # n L^2; estimated over 10^4 seeded replicates from the origin in an
        # effectively unbounded domain, drawn as one population.
        L, n_steps, reps = 0.5, 50, 10_000
        model = MobilityModel(RandomWalk(step_len=L, step_dt=1.0), BIG_BOX)
        paths = mobility._paths(model, np.zeros((reps, 3)), float(n_steps),
                                [rng_stream(2024, k) for k in range(reps)])
        sq = np.array([((traj.points[-1] - traj.points[0]) ** 2).sum() for traj in paths])
        msd = sq.mean()
        assert msd == pytest.approx(n_steps * L**2, rel=0.05)

    def test_scripted_reflects_at_wall(self):
        model = MobilityModel(Scripted(velocity=(1.0, 0, 0)),
                              Box((0, 0, 0), (10, 10, 10)))
        traj = sample_trajectory(model, (5, 5, 5), 12.0, rng_stream(0, 0))
        # reaches the x=10 wall at t=5 and bounces back to x=3 at t=12
        assert traj.point_at(5.0)[0] == pytest.approx(10.0)
        assert traj.point_at(12.0)[0] == pytest.approx(3.0)

    def test_wrap_policy_ends_leg_at_wall(self):
        model = MobilityModel(RandomDirection(speed=2.0, epoch=1000.0),
                              Box((0, 0, 0), (5, 5, 5)),
                              boundary=BoundaryPolicy.WRAP_TO_WAYPOINT)
        traj = sample_trajectory(model, (2.5, 2.5, 2.5), 400.0, rng_stream(8, 0))
        # the epoch outlives every wall transit, so wall hits must appear as
        # knots strictly inside the horizon
        interior_knots = traj.times[(traj.times > 0) & (traj.times < 400.0)]
        assert interior_knots.size >= 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_waypoint_always_inside(self, seed):
        model = MobilityModel(RandomWaypoint(0.5, 2.0, pause=0.5), ROOM)
        traj = sample_trajectory(model, (1, 1, 1), 30.0, rng_stream(seed, 0))
        assert (traj.points >= ROOM.lo_arr - 1e-9).all()
        assert (traj.points <= ROOM.hi_arr + 1e-9).all()


WRAP = BoundaryPolicy.WRAP_TO_WAYPOINT
REFLECT = BoundaryPolicy.REFLECT


def _pairs(kind, policy, horizon=200.0, seeds=range(8)):
    """(sampled, oracle) trajectory pairs from seeded starts in the room."""
    model = MobilityModel(kind, ROOM, boundary=policy)
    for seed in seeds:
        start = ROOM.sample_point(rng_stream(seed, 99))
        yield (sample_trajectory(model, start, horizon, rng_stream(seed, 0)),
               mobility_oracle.sample_trajectory(model, start, horizon,
                                                 rng_stream(seed, 0)))


def _on_wall(points, tol=1e-9):
    gap = np.minimum(points - ROOM.lo_arr, ROOM.hi_arr - points)
    return gap.min(axis=1) <= tol


class TestLegRule:
    """The leg sampler against the per-model reference samplers in
    tests/mobility_oracle.py."""

    @pytest.mark.parametrize("kind, policy", [
        (_all_models()[1], REFLECT), *[(kind, WRAP) for kind in _all_models()],
    ], ids=["waypoint-reflect", "walk-wrap", "waypoint-wrap", "direction-wrap",
            "scripted-wrap"])
    def test_same_arrays_as_oracle(self, kind, policy):
        for new, old in _pairs(kind, policy):
            assert np.array_equal(new.times, old.times)
            assert np.array_equal(new.points, old.points)

    @pytest.mark.parametrize("kind", [RandomDirection(speed=1.2, epoch=4.0),
                                      Scripted(velocity=(0.7, -0.3, 0.1)),
                                      Scripted(velocity=(-3.1, 2.2, 1.7))],
                             ids=["direction", "scripted", "scripted-fast"])
    def test_reflected_knots_match_oracle(self, kind):
        for new, old in _pairs(kind, REFLECT):
            assert new.times.size == old.times.size
            assert np.abs(new.times - old.times).max() <= 1e-9
            assert np.abs(new.points - old.points).max() <= 1e-9

    def test_reflected_walk_passes_through_oracle_knots(self):
        # The oracle walk takes the straight chord to each folded step end;
        # the leg sampler bounces, so it has more knots but meets every
        # oracle knot.
        for new, old in _pairs(RandomWalk(step_len=0.5, step_dt=1.0), REFLECT):
            assert new.times.size >= old.times.size
            assert np.abs(new.points_at(old.times) - old.points).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_positions_are_the_folded_line(self, seed):
        # A scripted path, and a direction epoch outliving the horizon, are
        # one leg: p0 + v·t folded into the box.
        stream = rng_stream(seed, 7)
        p0 = ROOM.sample_point(stream)
        ts = np.sort(stream.uniform(0.0, 90.0, size=200))
        v = stream.normal(size=3) * 2.0
        scripted = sample_trajectory(MobilityModel(Scripted(tuple(v)), ROOM), p0,
                                     90.0, rng_stream(seed, 0))
        assert np.abs(scripted.points_at(ts)
                      - _fold(p0 + np.outer(ts, v), ROOM.lo_arr, ROOM.hi_arr)).max() <= 1e-9
        direction = sample_trajectory(
            MobilityModel(RandomDirection(speed=1.7, epoch=1000.0), ROOM), p0, 90.0,
            rng_stream(seed, 0))
        v = mobility_oracle._unit_direction(rng_stream(seed, 0)) * 1.7
        assert np.abs(direction.points_at(ts)
                      - _fold(p0 + np.outer(ts, v), ROOM.lo_arr, ROOM.hi_arr)).max() <= 1e-9

    @pytest.mark.parametrize("kind", [RandomDirection(speed=1.2, epoch=1000.0),
                                      Scripted(velocity=(0.7, -0.3, 0.1))],
                             ids=["direction", "scripted"])
    def test_wrap_knots_lie_on_a_wall(self, kind):
        # Every knot between the start and the horizon is a wall hit; a
        # scripted agent then holds there until the horizon.
        last = -1 if isinstance(kind, RandomDirection) else None
        for new, _ in _pairs(kind, WRAP):
            assert new.times.size > 2
            assert _on_wall(new.points[1:last]).all()

    def test_walk_waits_at_the_wall_under_wrap(self):
        for new, _ in _pairs(RandomWalk(step_len=0.5, step_dt=1.0), WRAP):
            cut = ~np.isclose(new.times, np.round(new.times), rtol=0, atol=1e-9)
            assert cut.any() and _on_wall(new.points[cut]).all()
            # each cut is followed by a hold at the same point until the step ends
            nxt = np.flatnonzero(cut) + 1
            assert np.abs(new.points[nxt] - new.points[cut]).max() <= 1e-9

    def test_crossing_count_bounded(self):
        tiny = Box((0, 0, 0), (0.001, 0.001, 0.001))
        model = MobilityModel(RandomDirection(speed=1.0, epoch=1e5), tiny)
        with pytest.raises(ValueError, match=r"600 s leg at 1 m/s crosses the walls \d+ times"):
            sample_trajectory(model, (5e-4, 5e-4, 5e-4), 600.0, rng_stream(0, 1))
        # the same agent for a second stays under the bound
        traj = sample_trajectory(model, (5e-4, 5e-4, 5e-4), 1.0, rng_stream(0, 1))
        assert traj.times.size > 1000

    @pytest.mark.parametrize("policy", [REFLECT, WRAP])
    def test_an_axis_is_still_only_at_zero_velocity(self, policy):
        # At 1e-10 m/s the agent 1e-6 m below the y = 15 wall meets it at
        # 1e4 s; it is folded back or held there, never carried past it.
        model = MobilityModel(Scripted((0.0, 1e-10, 0.0)), ROOM, boundary=policy)
        traj = sample_trajectory(model, (10.0, 15.0 - 1e-6, 1.5), 1e5, rng_stream(0, 0))
        assert all(ROOM.contains(x) for x in traj.points)
        assert traj.point_at(1e4)[1] == pytest.approx(15.0, abs=1e-12)
        assert traj.points[-1, 1] == pytest.approx(15.0 if policy is WRAP else 15.0 - 9e-6,
                                                   abs=1e-12)

    @pytest.mark.parametrize("policy", [REFLECT, WRAP])
    def test_a_subnormal_velocity_adds_no_crossing(self, policy):
        # A first crossing at 7.5 m / 5e-324 m/s overflows to inf: that axis
        # meets no wall, and the path is the one with the axis at rest.
        start = (10.0, 7.5, 1.5)
        got, want = (sample_trajectory(MobilityModel(Scripted((0.7, vy, 0.0)), ROOM,
                                                     boundary=policy),
                                       start, 100.0, rng_stream(0, 0))
                     for vy in (5e-324, 0.0))
        assert got.times.tobytes() == want.times.tobytes()
        assert got.points.tobytes() == want.points.tobytes()
        assert all(ROOM.contains(x) for x in got.points)

    def test_leg_count_bounded(self):
        # A walk of exactly 50 legs keeps every knot under a bound of 50 legs
        # and is refused under a bound of 49.
        model = MobilityModel(RandomWalk(step_len=0.5, step_dt=1.0), ROOM)
        free = sample_trajectory(model, (5, 5, 1), 50.0, rng_stream(0, 1))
        with mock.patch.object(mobility, "_MAX_LEGS", 50):
            bounded = sample_trajectory(model, (5, 5, 1), 50.0, rng_stream(0, 1))
        with mock.patch.object(mobility, "_MAX_LEGS", 49), \
                pytest.raises(ValueError, match=r"more than 49 legs by 50 s of 50 s"):
            sample_trajectory(model, (5, 5, 1), 50.0, rng_stream(0, 1))
        assert bounded.times.tobytes() == free.times.tobytes()
        assert bounded.points.tobytes() == free.points.tobytes()


class _Draws:
    """A stream of given uniforms: random(n) takes the next n of them, and
    uniform(lo, hi) maps them as Generator.uniform does."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        taken, self.values = self.values[:n], self.values[n:]
        return np.array(taken)

    def uniform(self, lo, hi):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        u = self.random(lo.size)
        return lo + (hi - lo) * (u if lo.ndim else u[0])


class _ZeroTriples:
    """A stream whose normal triples 0, 2 and _ROUND_BLOCK + 1 are the zero
    vector: the first block of rounds skips two triples, and one of the
    triples drawn to refill it is skipped too."""

    def __init__(self, stream):
        self.stream, self.drawn, self.zeros_drawn = stream, 0, 0

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def normal(self, size):
        z = self.stream.normal(size=size).ravel()
        zero = np.isin(np.arange(self.drawn, self.drawn + z.size) // 3,
                       (0, 2, mobility._ROUND_BLOCK + 1))
        z[zero] = 0.0
        self.drawn += z.size
        self.zeros_drawn += int(zero.sum()) // 3
        return z.reshape(size)


class TestPopulation:
    """Populations drawn as arrays, against the reference samplers and the
    one-agent sampler."""

    @pytest.mark.parametrize("box, horizon", [(ROOM, 7.0), (HALL, 600.0)],
                             ids=["room-7s", "hall-600s"])
    def test_same_arrays_as_oracle_and_one_agent_sampler(self, box, horizon):
        # The 600 s paths take about 20 rounds each, so every agent draws
        # several blocks; the population's agents finish at different rounds.
        kind = RandomWaypoint(speed_min=0.5, speed_max=2.0, pause=1.5)
        models = [MobilityModel(kind, box, boundary=policy) for policy in (REFLECT, WRAP)]
        for seed in range(200):
            paths = [sample_population(model, horizon, [rng_stream(seed, i + 1)
                                                         for i in range(40)])
                     for model in models]
            for i in range(40):
                stream = rng_stream(seed, i + 1)
                want = [mobility_oracle.sample_trajectory(models[0], box.sample_point(stream),
                                                          horizon, stream)]
                if seed < 4:  # the one-agent case of the same sampler
                    stream = rng_stream(seed, i + 1)
                    want.append(sample_trajectory(models[1], box.sample_point(stream),
                                                  horizon, stream))
                for got in (paths[0][i], paths[1][i]):
                    for other in want:
                        assert got.times.tobytes() == other.times.tobytes()
                        assert got.points.tobytes() == other.points.tobytes()

    def test_population_is_the_one_agent_case(self):
        for kind in _all_models():
            for policy in (REFLECT, WRAP):
                model = MobilityModel(kind, ROOM, boundary=policy)
                paths = sample_population(model, 60.0, [rng_stream(5, i + 1) for i in range(6)])
                for i, got in enumerate(paths):
                    stream = rng_stream(5, i + 1)
                    want = sample_trajectory(model, ROOM.sample_point(stream), 60.0, stream)
                    assert got.times.tobytes() == want.times.tobytes()
                    assert got.points.tobytes() == want.points.tobytes()
        assert sample_population(model, 60.0, []) == []

    @pytest.mark.parametrize("kind", [RandomWalk(step_len=0.5, step_dt=1.0),
                                      RandomDirection(speed=1.2, epoch=4.0),
                                      Scripted(velocity=(0.7, -0.3, 0.1))],
                             ids=["walk", "direction", "scripted"])
    def test_same_arrays_as_leg_sampler(self, kind):
        # In the 2 m box most legs meet a wall; in the room most do not.
        for box in (ROOM, Box((0, 0, 0), (2, 2, 2))):
            for policy in (REFLECT, WRAP):
                model = MobilityModel(kind, box, boundary=policy)
                for seed in range(100):
                    paths = sample_population(model, 20.0, [rng_stream(seed, i + 1)
                                                            for i in range(20)])
                    for i, got in enumerate(paths):
                        stream = rng_stream(seed, i + 1)
                        want = mobility_oracle.leg_sampler(model, box.sample_point(stream),
                                                           20.0, stream)
                        assert got.times.tobytes() == want.times.tobytes()
                        assert got.points.tobytes() == want.points.tobytes()

    @pytest.mark.parametrize("kind", [RandomWalk(step_len=0.5, step_dt=1.0),
                                      RandomDirection(speed=1.2, epoch=4.0)],
                             ids=["walk", "direction"])
    def test_a_zero_gaussian_triple_is_skipped(self, kind):
        model = MobilityModel(kind, ROOM)
        streams = [_ZeroTriples(rng_stream(3, i + 1)) for i in range(5)]
        paths = sample_population(model, 12.0, streams)
        assert [s.zeros_drawn for s in streams] == [3] * 5
        for i, got in enumerate(paths):
            stream = _ZeroTriples(rng_stream(3, i + 1))
            want = mobility_oracle.leg_sampler(model, ROOM.sample_point(stream), 12.0, stream)
            assert got.times.tobytes() == want.times.tobytes()
            assert got.points.tobytes() == want.points.tobytes()

    @pytest.mark.parametrize("policy", [REFLECT, WRAP])
    def test_round_to_a_wall_target_takes_the_leg_rule(self, policy):
        # Every target has one coordinate on a wall, so rounding can carry
        # the straight line p + v·travel to that wall before the leg ends;
        # such a round is folded or cut by _leg as the leg sampler did.
        model = MobilityModel(RandomWaypoint(0.5, 2.0, 1.5), ROOM, boundary=policy)
        wall_rounds = 0
        for seed in range(150):
            rng = np.random.default_rng(seed)
            start = ROOM.sample_point(rng)
            draws = rng.random((64, 4))
            draws[np.arange(64), rng.integers(0, 3, 64)] = rng.integers(0, 2, 64)
            with mock.patch.object(mobility, "_leg", wraps=mobility._leg) as leg:
                got = sample_trajectory(model, start, 60.0, _Draws(draws.ravel()))
            wall_rounds += leg.call_count
            want = mobility_oracle.leg_waypoint(model, start, 60.0, _Draws(draws.ravel()))
            assert got.times.tobytes() == want.times.tobytes()
            assert got.points.tobytes() == want.points.tobytes()
            assert (got.points >= ROOM.lo_arr - 1e-9).all()
            assert (got.points <= ROOM.hi_arr + 1e-9).all()
        assert wall_rounds >= 10

    @pytest.mark.parametrize("box, speed, horizon, bound", [
        (ROOM, 2.0, 300.0, 40),
        # Rounds here travel less than _EPS or a little more, so agents
        # pass the bound at different rounds and slightly different clocks.
        (Box((0, 0, 0), (1.5e-9, 1.5e-9, 1.5e-9)), 0.5, 10.0, 60),
    ], ids=["room", "near-eps-box"])
    def test_leg_bound_refuses_the_first_agent_past_it(self, box, speed, horizon, bound):
        # The population refuses with the message of the first agent, in
        # agent order, whose path passes the bound, as agent-by-agent
        # sampling did.
        model = MobilityModel(RandomWaypoint(0.5, speed, 0.0), box)
        for seed in range(6):
            with mock.patch.object(mobility, "_MAX_LEGS", bound):
                want = []
                for i in range(10):
                    stream = rng_stream(seed, i + 1)
                    try:
                        mobility_oracle.leg_waypoint(model, box.sample_point(stream),
                                                     horizon, stream)
                    except ValueError as exc:
                        want.append(str(exc))
                with pytest.raises(ValueError) as got:
                    sample_population(model, horizon,
                                      [rng_stream(seed, i + 1) for i in range(10)])
            assert want and str(got.value) == want[0]
            assert f"more than {bound} legs by " in want[0]

    def test_crossing_bound_refuses_the_first_agent_past_it(self):
        # 15 m legs in a 2 m box cross the walls 8 to 13 times, so under a
        # bound of 11 crossings some agents are refused, at different rounds
        # and counts; the population refuses with the first of them in agent
        # order, not with the first refused in time.
        box = Box((0, 0, 0), (2, 2, 2))
        model = MobilityModel(RandomDirection(speed=3.0, epoch=5.0), box)
        for seed in range(6):
            with mock.patch.object(mobility, "_MAX_CROSSINGS", 11):
                want = []
                for i in range(10):
                    stream = rng_stream(seed, i + 1)
                    try:
                        mobility_oracle.leg_sampler(model, box.sample_point(stream), 30.0, stream)
                    except ValueError as exc:
                        want.append(str(exc))
                with pytest.raises(ValueError) as got:
                    sample_population(model, 30.0, [rng_stream(seed, i + 1) for i in range(10)])
            assert want and str(got.value) == want[0]
            assert "crosses the walls" in want[0]

    def test_rounds_that_take_no_time_meet_the_leg_bound(self):
        tiny = Box((0, 0, 0), (1e-10, 1e-10, 1e-10))
        model = MobilityModel(RandomWaypoint(0.5, 1.5, 0.0), tiny)
        with mock.patch.object(mobility, "_MAX_LEGS", 500), \
                pytest.raises(ValueError, match=r"more than 500 legs by 0 s of 600 s;"):
            sample_population(model, 600.0, [rng_stream(0, i + 1) for i in range(3)])


class TestKnotTable:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_interp_bit_for_bit(self, seed):
        # Rows of 1 to 7 knots, padded to the longest; some coordinates are
        # -0.0. Read at every knot time, before and after every span and
        # inside, in shuffled order.
        rng = np.random.default_rng(seed)
        paths = []
        for size in rng.integers(1, 8, 6):
            times = np.cumsum(rng.uniform(0.01, 5.0, size)) - rng.uniform(0, 10)
            points = rng.normal(0, 10, (size, 3))
            points[rng.random((size, 3)) < 0.2] = -0.0
            paths.append(Trajectory(times, points))
        knots = np.concatenate([p.times for p in paths])
        ts = np.concatenate([knots, knots.min() - rng.uniform(1e-12, 5, 4),
                             knots.max() + rng.uniform(1e-12, 5, 4),
                             rng.uniform(knots.min(), knots.max(), 30)])
        rng.shuffle(ts)
        table = KnotTable(paths)
        got = table.points_at(ts)
        assert got.shape == (len(paths), ts.size, 3)
        for row, path in enumerate(paths):
            want = np.column_stack([np.interp(ts, path.times, path.points[:, k])
                                    for k in range(3)])
            assert got[row].tobytes() == want.tobytes()
            assert path.points_at(ts).tobytes() == want.tobytes()
        rows = [4, 0, 4, 2]
        assert table.points_at(ts, rows).tobytes() == got[rows].tobytes()
