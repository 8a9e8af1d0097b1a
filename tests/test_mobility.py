import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mobility_oracle
from virodyne.core import rng_stream
from virodyne.errors import OutOfDomain
from virodyne.mobility import (
    BoundaryPolicy,
    Box,
    MobilityModel,
    RandomDirection,
    RandomWalk,
    RandomWaypoint,
    Scripted,
    Trajectory,
    _fold,
    _unit_direction,
    sample_trajectory,
)

BIG_BOX = Box(lo=(-1e6, -1e6, -1e6), hi=(1e6, 1e6, 1e6))
ROOM = Box(lo=(0, 0, 0), hi=(20, 15, 3))


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
        # n L^2; estimated over 10^4 seeded replicates in an effectively
        # unbounded domain.
        L, n_steps, reps = 0.5, 50, 10_000
        model = MobilityModel(RandomWalk(step_len=L, step_dt=1.0), BIG_BOX)
        sq = np.empty(reps)
        for k in range(reps):
            traj = sample_trajectory(model, (0, 0, 0), float(n_steps),
                                     rng_stream(2024, k))
            sq[k] = ((traj.points[-1] - traj.points[0]) ** 2).sum()
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
        v = _unit_direction(rng_stream(seed, 0)) * 1.7
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
