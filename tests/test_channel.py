import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from virodyne import channel
from virodyne.channel import (
    Environment,
    FieldQuery,
    FreeSpace,
    HalfSpaceReflecting,
    RectangularDuctReflecting,
    Scenario,
    SourceSpec,
    concentration_continuous,
    concentration_instant,
    concentration_moving_source,
    concentration_multi_source,
    concentration_steady,
    evaluate_field,
    image_points,
    unit_continuous_kernel,
    unit_instant_kernel,
)
from virodyne.core import Velocity
from virodyne.epidemic import Agent, accumulate_dose
from virodyne.errors import OutOfRange, QuadratureFailure, SingularPoint
from virodyne.mobility import Trajectory

ENV40 = Environment(diffusivity=40.0)


class TestInstant:
    def test_zero_mass(self):
        src = SourceSpec.instant((0, 0, 0), 0.0)
        assert concentration_instant(src, ENV40, (1, 2, 3), 5.0) == 0.0

    def test_hand_evaluated_peak(self):
        # Q=1, D=1, v=0, r=r0, tau=1/(4 pi): (4 pi D tau)^(-3/2) = 1.
        env = Environment(diffusivity=1.0)
        src = SourceSpec.instant((0, 0, 0), 1.0)
        c = concentration_instant(src, env, (0, 0, 0), 1.0 / (4 * math.pi))
        assert c == pytest.approx(1.0, rel=1e-12)

    def test_radial_symmetry(self):
        src = SourceSpec.instant((1, 1, 1), 2.0)
        a = concentration_instant(src, ENV40, (1 + 3, 1, 1), 7.0)
        b = concentration_instant(src, ENV40, (1, 1 - 3, 1), 7.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_before_release_is_zero(self):
        src = SourceSpec.instant((0, 0, 0), 1.0, start_time=10.0)
        assert concentration_instant(src, ENV40, (1, 0, 0), 9.0) == 0.0
        assert concentration_instant(src, ENV40, (1, 0, 0), 10.0) == 0.0

    def test_galilean_consistency(self):
        # With wind v the free-space field equals the still field at r - v tau.
        wind = Velocity(1.5, -0.5, 2.0)
        env_w = Environment(diffusivity=3.0, wind=wind)
        env_0 = Environment(diffusivity=3.0)
        src = SourceSpec.instant((0.5, 1.0, -2.0), 1.7, start_time=1.0)
        t = 6.0
        tau = t - src.start_time
        r = np.array([4.0, 2.0, 1.0])
        shifted = r - wind.as_array() * tau
        a = concentration_instant(src, env_w, r, t)
        b = concentration_instant(src, env_0, shifted, t)
        assert a == pytest.approx(b, rel=1e-12)

    @given(st.floats(0.1, 50), st.floats(0.05, 20),
           st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_non_negative(self, d_coeff, tau, x, y, z):
        env = Environment(diffusivity=d_coeff)
        src = SourceSpec.instant((0, 0, 0), 1.0)
        assert concentration_instant(src, env, (x, y, z), tau) >= 0.0


class TestContinuous:
    def test_steady_state_limit(self):
        src = SourceSpec.continuous(1.0, position=(0, 0, 0))
        limit = 1.0 / (1600 * math.pi)
        assert concentration_steady(src, ENV40, (10, 0, 0)) == pytest.approx(limit)
        # finite-time values approach the limit from below
        c1 = concentration_continuous(src, ENV40, (10, 0, 0), 1e3)
        c2 = concentration_continuous(src, ENV40, (10, 0, 0), 1e5)
        assert c1 < c2 < limit

    def test_zero_at_start_time(self):
        src = SourceSpec.continuous(1.0, position=(0, 0, 0), start_time=5.0)
        assert concentration_continuous(src, ENV40, (3, 0, 0), 5.0) == 0.0

    def test_monotone_in_time(self):
        src = SourceSpec.continuous(2.0, position=(0, 0, 0))
        ts = [1.0, 5.0, 20.0, 100.0, 1000.0]
        vals = [concentration_continuous(src, ENV40, (7, 1, 0), t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_singular_at_source(self):
        src = SourceSpec.continuous(1.0, position=(1, 2, 3))
        with pytest.raises(SingularPoint):
            concentration_continuous(src, ENV40, (1, 2, 3), 10.0)
        with pytest.raises(SingularPoint):
            concentration_steady(src, ENV40, (1, 2, 3))

    def test_closed_form_matches_time_quadrature_of_instant(self):
        # Independent oracle: integrate the instant kernel over emissions.
        src = SourceSpec.continuous(1.0, position=(0, 0, 0))
        r = np.array([6.0, 2.0, -1.0])
        t = 50.0
        ss = np.linspace(0, t, 20001)
        taus = t - ss
        kern = unit_instant_kernel(ENV40, np.zeros(3), r, taus)
        oracle = np.trapezoid(kern, ss)
        closed = concentration_continuous(src, ENV40, r, t)
        assert closed == pytest.approx(oracle, rel=1e-5)

    def test_quadrature_path_with_wind_matches_fine_trapezoid(self):
        env = Environment(diffusivity=10.0, wind=Velocity(1.0, 0.0, 0.0))
        src = SourceSpec.continuous(0.5, position=(0, 0, 0))
        r = np.array([8.0, 1.0, 0.0])
        t = 30.0
        ss = np.linspace(0, t, 40001)
        kern = unit_instant_kernel(env, np.zeros(3), r, t - ss)
        oracle = 0.5 * np.trapezoid(kern, ss)
        val = concentration_continuous(src, env, r, t)
        assert val == pytest.approx(oracle, rel=1e-4)

    def test_time_varying_rate_uses_quadrature(self):
        rate = lambda s: 1.0 if s < 10.0 else 0.0
        src = SourceSpec.continuous(rate, position=(0, 0, 0))
        const = SourceSpec.continuous(1.0, position=(0, 0, 0))
        r = (5, 0, 0)
        early = concentration_continuous(src, ENV40, r, 8.0)
        assert early == pytest.approx(
            concentration_continuous(const, ENV40, r, 8.0), rel=1e-5)
        # after shutoff the pulse decays below the always-on field
        assert concentration_continuous(src, ENV40, r, 60.0) < \
            concentration_continuous(const, ENV40, r, 60.0)


# Each boundary with the wind components its image construction admits.
_BOUNDARIES = {
    "free": (FreeSpace(), np.array([1.0, 1.0, 1.0])),
    "half": (HalfSpaceReflecting(), np.array([1.0, 1.0, 0.0])),
    "duct": (RectangularDuctReflecting(3.0, 2.5, image_order=3),
             np.array([1.0, 0.0, 0.0])),
}


@st.composite
def static_source_cases(draw):
    """(env, source point, observer, tau) for a static source inside the
    domain and an observer 1.5-6 m away; the distance floor and D <= 1 keep
    the 1e-11 oracle quadrature within a few hundred thousand nodes."""
    kind = draw(st.sampled_from(sorted(_BOUNDARIES)))
    boundary, admissible = _BOUNDARIES[kind]
    wind = admissible * np.array([draw(st.floats(-2.0, 2.0)) for _ in range(3)])
    env = Environment(diffusivity=draw(st.floats(0.1, 1.0)),
                      wind=Velocity(*wind), boundary=boundary)
    if kind == "duct":
        y0, z0 = draw(st.floats(0.1, 2.9)), draw(st.floats(0.1, 2.4))
        y, z = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 2.5))
    elif kind == "half":
        y0, z0 = 0.0, draw(st.floats(0.1, 3.0))
        y, z = draw(st.floats(-4.0, 4.0)), draw(st.floats(0.0, 4.0))
    else:
        y0, z0 = 0.0, 0.0
        y, z = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    dist = draw(st.floats(1.5, 6.0))
    dx = math.sqrt(max(dist**2 - (y - y0) ** 2 - (z - z0) ** 2, 0.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    src = np.array([0.0, y0, z0])
    obs = np.array([sign * dx, y, z])
    return env, src, obs, draw(st.floats(0.5, 500.0))


class TestContinuousKernel:
    @given(static_source_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_static_trajectory_quadrature(self, case):
        env, src, obs, tau = case
        traj = Trajectory.static(src, 0.0, tau)
        moving = SourceSpec.continuous(1.0, trajectory=traj)
        oracle = concentration_moving_source(moving, env, obs, tau,
                                             quadrature_tol=1e-11)
        got = unit_continuous_kernel(env, src, obs, [tau])[0]
        assert got == pytest.approx(oracle, rel=1e-9)

    @given(static_source_cases())
    @settings(max_examples=60, deadline=None)
    def test_infinite_tau_is_explicit_steady_sum(self, case):
        env, src, obs, _ = case
        v = env.wind_arr
        expect = 0.0
        for p in image_points(env, src):
            dr = obs - p
            d = float(np.linalg.norm(dr))
            expect += math.exp((float(v @ dr) - float(np.linalg.norm(v)) * d)
                               / (2.0 * env.diffusivity)) / (4.0 * math.pi * env.diffusivity * d)
        got = unit_continuous_kernel(env, src, obs, [math.inf])[0]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_erfcx_matches_scipy_on_both_branches(self):
        special = pytest.importorskip("scipy.special")
        x = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(30.0, 1e6, 50)])
        assert channel._erfcx(x) == pytest.approx(special.erfcx(x), rel=2e-13)

    def test_hostile_exponents_stay_finite(self):
        # |v| d / 2D = 2.5e4: exp of either exponent alone overflows.
        D, d = 1e-3, 10.0
        env = Environment(diffusivity=D, wind=Velocity(5.0, 0.0, 0.0))
        obs = np.array([[d, 0.0, 0.0], [-d, 0.0, 0.0]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            down, up = unit_continuous_kernel(env, np.zeros(3), obs, [1e3, 1e3])
        assert down == pytest.approx(1.0 / (4 * math.pi * D * d), rel=1e-12)
        assert up == 0.0

    def test_static_wind_never_takes_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("static constant-rate source sent to quadrature")

        monkeypatch.setattr(channel, "adaptive_emission_integral", no_quadrature)
        env = Environment(diffusivity=0.5, wind=Velocity(0.3, 0.1, 0.0),
                          boundary=HalfSpaceReflecting())
        src = SourceSpec.continuous(2e-3, position=(1.0, 2.0, 1.5), start_time=5.0)
        q = FieldQuery.from_grid([0.0, 4.0], [1.0, 3.0], [0.5, 2.0], [3.0, 60.0])
        field_vals = evaluate_field(q, Scenario(env, [src]))
        assert np.isfinite(field_vals).all() and field_vals.max() > 0.0
        infected = Agent(0, Trajectory.static((1.0, 2.0, 1.5), 0.0, 60.0),
                         emission_rate=2e-3)
        sus = Agent(1, Trajectory.straight_line((5.0, 2.0, 1.5), (0.1, 0.0, 0.0),
                                                0.0, 60.0), emission_rate=0.0)
        dose = accumulate_dose(sus, [(infected, 5.0)], env, 40.0, 50.0)
        assert math.isfinite(dose) and dose > 0.0


class TestMovingSource:
    def test_static_trajectory_degenerates_to_continuous(self):
        traj = Trajectory.static((0, 0, 25), 0.0, 100.0)
        moving = SourceSpec.continuous(1.0, trajectory=traj)
        static = SourceSpec.continuous(1.0, position=(0, 0, 25))
        a = concentration_moving_source(moving, ENV40, (35, 0, 25), 60.0)
        b = concentration_continuous(static, ENV40, (35, 0, 25), 60.0)
        assert a == pytest.approx(b, rel=1e-6)

    def test_trajectory_must_cover_query_time(self):
        traj = Trajectory.straight_line((0, 0, 0), (1, 0, 0), 0.0, 10.0)
        src = SourceSpec.continuous(1.0, trajectory=traj)
        with pytest.raises(OutOfRange):
            concentration_moving_source(src, ENV40, (5, 0, 0), 20.0)

    def test_quadrature_failure_at_singular_passage(self):
        # The observer sits exactly on the path at the passage instant.
        traj = Trajectory.straight_line((0, 0, 25), (2, 0, 0), 0.0, 100.0)
        src = SourceSpec.continuous(1.0, trajectory=traj)
        with pytest.raises(QuadratureFailure) as err:
            concentration_moving_source(src, ENV40, (35, 0, 25), 17.5)
        assert err.value.estimate > 0
        assert err.value.error_bound > 0

    def test_deterministic(self):
        traj = Trajectory.straight_line((0, 0, 0), (1.5, 0, 0), 0.0, 50.0)
        src = SourceSpec.continuous(1.0, trajectory=traj)
        a = concentration_moving_source(src, ENV40, (20, 3, 1), 30.0)
        b = concentration_moving_source(src, ENV40, (20, 3, 1), 30.0)
        assert a == b


class TestMultiSource:
    def test_singleton_equals_single(self):
        src = SourceSpec.continuous(1.0, position=(0, 0, 0))
        a = concentration_multi_source([src], ENV40, (5, 5, 5), 12.0)
        b = concentration_continuous(src, ENV40, (5, 5, 5), 12.0)
        assert a == b

    def test_two_colocated_sources_double(self):
        src = SourceSpec.instant((1, 1, 1), 0.7)
        single = concentration_instant(src, ENV40, (3, 0, 0), 4.0)
        both = concentration_multi_source([src, src], ENV40, (3, 0, 0), 4.0)
        assert both == pytest.approx(2 * single, rel=1e-14)

    def test_mixed_kinds_superpose(self):
        s1 = SourceSpec.instant((0, 0, 0), 1.0)
        s2 = SourceSpec.continuous(0.5, position=(10, 0, 0))
        r, t = (5, 0, 0), 8.0
        total = concentration_multi_source([s1, s2], ENV40, r, t)
        assert total == pytest.approx(
            concentration_instant(s1, ENV40, r, t)
            + concentration_continuous(s2, ENV40, r, t))


class TestBoundaries:
    def test_halfspace_normal_derivative_vanishes(self):
        env = Environment(diffusivity=2.0, boundary=HalfSpaceReflecting())
        src = SourceSpec.instant((0, 0, 3), 1.0)
        h = 1e-4
        for (x, y) in [(1.0, 0.5), (-2.0, 1.0), (0.0, 0.0)]:
            up = concentration_instant(src, env, (x, y, h), 2.0)
            dn = concentration_instant(src, env, (x, y, -h), 2.0)
            mid = concentration_instant(src, env, (x, y, 0.0), 2.0)
            assert abs(up - dn) / (2 * h) <= 1e-6 * mid / 1.0

    def test_halfspace_doubles_on_plane_source(self):
        env_h = Environment(diffusivity=1.0, boundary=HalfSpaceReflecting())
        env_f = Environment(diffusivity=1.0)
        src = SourceSpec.instant((0, 0, 0), 1.0)
        a = concentration_instant(src, env_h, (1, 1, 0.5), 1.0)
        b = concentration_instant(src, env_f, (1, 1, 0.5), 1.0)
        assert a > b  # reflected mass adds

    def test_duct_wall_derivative_vanishes(self):
        duct = RectangularDuctReflecting(width=2.0, height=1.5, image_order=10)
        env = Environment(diffusivity=0.5, boundary=duct)
        src = SourceSpec.instant((0, 0.7, 0.9), 1.0)
        h = 1e-4
        up = concentration_instant(src, env, (0.5, h, 0.8), 1.0)
        dn = concentration_instant(src, env, (0.5, -h, 0.8), 1.0)
        mid = concentration_instant(src, env, (0.5, 0.0, 0.8), 1.0)
        assert abs(up - dn) / (2 * h) <= 1e-6 * mid

    def test_duct_conserves_cross_section_mass(self):
        # Integrated over the duct cross-section the 1-D image sums are
        # nearly lossless, so the x-marginal stays Gaussian-normalized.
        duct = RectangularDuctReflecting(width=1.0, height=1.0, image_order=12)
        env = Environment(diffusivity=0.3, boundary=duct)
        src = SourceSpec.instant((0, 0.4, 0.6), 1.0)
        ys = np.linspace(0, 1, 41)
        zs = np.linspace(0, 1, 41)
        xs = np.linspace(-6, 6, 121)
        total = 0.0
        t = 1.0
        for x in xs:
            grid = np.array([(x, y, z) for y in ys for z in zs])
            vals = unit_instant_kernel(env, src.position.as_array(), grid,
                                       np.full(len(grid), t))
            plane = np.trapezoid(
                np.trapezoid(vals.reshape(41, 41), zs, axis=1), ys)
            total += plane
        total *= xs[1] - xs[0]
        assert total == pytest.approx(1.0, rel=1e-3)

    def test_wind_boundary_compatibility(self):
        with pytest.raises(ValueError):
            Environment(diffusivity=1.0, wind=Velocity(0, 0, 1),
                        boundary=HalfSpaceReflecting())
        with pytest.raises(ValueError):
            Environment(diffusivity=1.0, wind=Velocity(0, 1, 0),
                        boundary=RectangularDuctReflecting(1, 1))
        Environment(diffusivity=1.0, wind=Velocity(2, 0, 0),
                    boundary=RectangularDuctReflecting(1, 1))

    def test_image_points_counts(self):
        assert len(image_points(ENV40, np.zeros(3))) == 1
        env_h = Environment(diffusivity=1.0, boundary=HalfSpaceReflecting())
        assert len(image_points(env_h, np.array([0, 0, 2.0]))) == 2
        duct = RectangularDuctReflecting(1.0, 1.0, image_order=3)
        env_d = Environment(diffusivity=1.0, boundary=duct)
        assert len(image_points(env_d, np.array([0, 0.5, 0.5]))) == (2 * 7) ** 2


class TestImageTransforms:
    DUCT = RectangularDuctReflecting(1.0, 2.0, image_order=2)

    @staticmethod
    def built_afresh(boundary):
        """The image maps written out: identity first, then the duct's
        (y flip, y offset, z flip, z offset) sweep in loop order."""
        ident = ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        if isinstance(boundary, FreeSpace):
            return [ident]
        if isinstance(boundary, HalfSpaceReflecting):
            return [ident, ([1.0, 1.0, -1.0], [0.0, 0.0, 0.0])]
        order = boundary.image_order
        rest = [([1.0, sy, sz], [0.0, 2 * boundary.width * ny, 2 * boundary.height * nz])
                for sy in (1.0, -1.0) for ny in range(-order, order + 1)
                for sz in (1.0, -1.0) for nz in range(-order, order + 1)]
        rest.remove(ident)
        return [ident] + rest

    @pytest.mark.parametrize("boundary", [FreeSpace(), HalfSpaceReflecting(), DUCT])
    def test_maps_equal_a_fresh_build(self, boundary):
        maps = channel.image_transforms(Environment(diffusivity=1.0, boundary=boundary))
        want = self.built_afresh(boundary)
        assert len(maps) == len(want)
        for (flip, off), (w_flip, w_off) in zip(maps, want):
            assert flip.tolist() == w_flip and off.tolist() == w_off

    def test_second_call_does_not_rebuild(self, monkeypatch):
        calls = []
        build = channel._reflected_offsets
        monkeypatch.setattr(channel, "_reflected_offsets",
                            lambda *a: calls.append(a) or build(*a))
        duct = RectangularDuctReflecting(3.0, 2.5, image_order=4)
        env = Environment(diffusivity=1.0, boundary=duct)
        channel._image_stack.cache_clear()
        first = channel.image_transforms(env)
        n_calls = len(calls)
        second = channel.image_transforms(Environment(diffusivity=2.0, boundary=duct))
        assert n_calls > 0 and len(calls) == n_calls
        assert len(first) == len(second) == (2 * 9) ** 2

    def test_maps_are_read_only(self):
        env = Environment(diffusivity=1.0, boundary=self.DUCT)
        for flip, off in channel.image_transforms(env):
            assert not flip.flags.writeable and not off.flags.writeable
        with pytest.raises(ValueError):
            channel.image_transforms(env)[0][1][2] = 5.0


class TestEvaluateField:
    def test_from_grid_matches_nested_loops(self):
        xs, ys, zs = [0.0, 1.5, 3.0], [-1.0, 2.0], [0.25, 0.5, 0.75, 1.0]
        times = [0.0, 2.5, 10.0]
        pts, ts = [], []
        for t in times:
            for x in xs:
                for y in ys:
                    for z in zs:
                        pts.append((x, y, z))
                        ts.append(t)
        q = FieldQuery.from_grid(xs, ys, zs, times)
        assert np.array_equal(q.positions, np.array(pts))
        assert np.array_equal(q.times, np.array(ts))
        assert len(FieldQuery.from_grid(xs, [], zs, times)) == 0

    def test_empty_query(self):
        q = FieldQuery.from_pairs([])
        out = evaluate_field(q, Scenario(ENV40, [SourceSpec.instant((0, 0, 0), 1.0)]))
        assert out.size == 0

    def test_permutation_purity(self):
        src = SourceSpec.instant((0, 0, 0), 1.0)
        pts = [((x, y, 0.0), 3.0) for x in (1, 2, 3) for y in (0, 1, 4)]
        q = FieldQuery.from_pairs(pts)
        out = evaluate_field(q, Scenario(ENV40, [src]))
        perm = list(reversed(range(len(pts))))
        q2 = FieldQuery.from_pairs([pts[i] for i in perm])
        out2 = evaluate_field(q2, Scenario(ENV40, [src]))
        assert np.array_equal(out2, out[perm])

    def test_matches_scalar_calls(self):
        sources = [SourceSpec.instant((0, 0, 0), 1.0),
                   SourceSpec.continuous(0.3, position=(5, 5, 5))]
        pts = [((1.0, 2.0, 0.5), 4.0), ((4.0, 4.0, 4.0), 0.5),
               ((9.0, 9.0, 9.0), 25.0)]
        q = FieldQuery.from_pairs(pts)
        out = evaluate_field(q, Scenario(ENV40, sources))
        for (r, t), got in zip(pts, out):
            assert got == pytest.approx(
                concentration_multi_source(sources, ENV40, r, t), rel=1e-12)

    def test_pre_emission_points_are_zero(self):
        src = SourceSpec.continuous(1.0, position=(0, 0, 0), start_time=100.0)
        q = FieldQuery.from_pairs([((1, 1, 1), 5.0), ((1, 1, 1), 99.9)])
        out = evaluate_field(q, Scenario(ENV40, [src]))
        assert (out == 0.0).all()

    def test_thread_count_invariance(self, monkeypatch):
        src = SourceSpec.continuous(1.0, position=(0, 0, 25))
        q = FieldQuery.from_grid([35.0], [0.0], np.linspace(0, 50, 21), [30.0])
        monkeypatch.setenv("VIRODYNE_THREADS", "1")
        a = evaluate_field(q, Scenario(ENV40, [src]), chunk_size=4)
        monkeypatch.setenv("VIRODYNE_THREADS", "8")
        b = evaluate_field(q, Scenario(ENV40, [src]), chunk_size=4)
        assert np.array_equal(a, b)

    def test_pointwise_errors_carry_indices(self):
        from virodyne.errors import FieldEvaluationError
        src = SourceSpec.continuous(1.0, position=(0, 0, 0))
        q = FieldQuery.from_pairs([
            ((1, 0, 0), 5.0),
            ((0, 0, 0), 5.0),  # singular: observer on the source
            ((2, 0, 0), 5.0),
        ])
        with pytest.raises(FieldEvaluationError) as err:
            evaluate_field(q, Scenario(ENV40, [src]))
        assert [i for i, _ in err.value.failures] == [1]
