import math
import os
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import duct_oracle
import quadrature_oracle
from conftest import observer_doses
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
    concentration_steady,
    evaluate_field,
    unit_continuous_kernel,
    unit_instant_kernel,
)
from virodyne.core import Velocity
from virodyne.epidemic import Agent
from virodyne.errors import (
    FieldEvaluationError,
    OutOfDomain,
    QuadratureFailure,
    SingularPoint,
)
from virodyne.mobility import Trajectory

ENV40 = Environment(diffusivity=40.0)
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def _query(pairs):
    """FieldQuery of (position, time) pairs."""
    pos, times = zip(*pairs) if pairs else ((), ())
    return FieldQuery(np.reshape(np.array(pos, dtype=float), (-1, 3)),
                      np.array(times, dtype=float))


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

    def test_stepped_rate_pulse(self):
        src = SourceSpec.continuous([(0.0, 1.0), (10.0, 0.0)], position=(0, 0, 0))
        const = SourceSpec.continuous(1.0, position=(0, 0, 0))
        r = (5, 0, 0)
        early = concentration_continuous(src, ENV40, r, 8.0)
        assert early == pytest.approx(
            concentration_continuous(const, ENV40, r, 8.0), rel=1e-14)
        # after shutoff the pulse decays below the always-on field: it is
        # that field less the same source switched on at 10 s
        late = SourceSpec.continuous(1.0, position=(0, 0, 0), start_time=10.0)
        pulse = concentration_continuous(src, ENV40, r, 60.0)
        assert pulse < concentration_continuous(const, ENV40, r, 60.0)
        assert pulse == pytest.approx(concentration_continuous(const, ENV40, r, 60.0)
                                      - concentration_continuous(late, ENV40, r, 60.0),
                                      rel=1e-12)


# Each boundary with the wind components its image construction admits.
_BOUNDARIES = {
    "free": (FreeSpace(), np.array([1.0, 1.0, 1.0])),
    "half": (HalfSpaceReflecting(), np.array([1.0, 1.0, 0.0])),
    "duct": (RectangularDuctReflecting(3.0, 2.5),
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


def _explicit_steady_sum(env, src, obs):
    """The steady kernel exp((v . dr - |v| d) / 2D) / (4 pi D d) summed
    image by image: in a duct by tests/duct_oracle.py."""
    b = env.boundary
    if isinstance(b, RectangularDuctReflecting):
        return duct_oracle.continuous(b.width, b.height, env.diffusivity, env.wind.vx,
                                      src, obs, math.inf)
    v = env.wind_arr
    total = 0.0
    for flip, offset in channel.image_transforms(env):
        dr = obs - (flip * src + offset)
        d = float(np.linalg.norm(dr))
        total += math.exp((float(v @ dr) - float(np.linalg.norm(v)) * d)
                          / (2.0 * env.diffusivity)) / (4.0 * math.pi * env.diffusivity * d)
    return total


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
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_infinite_tau_is_explicit_steady_sum(self, case):
        # Except in still air between walls, where no steady state exists.
        env, src, obs, _ = case
        if isinstance(env.boundary, RectangularDuctReflecting) and not env.has_wind:
            with pytest.raises(SingularPoint, match="steady state"):
                unit_continuous_kernel(env, src, obs, [math.inf])
            return
        # In a duct the oracle sums images out to 90 D / |u| across it.
        assume(not isinstance(env.boundary, RectangularDuctReflecting)
               or abs(env.wind.vx) >= 0.2)
        got = unit_continuous_kernel(env, src, obs, [math.inf])[0]
        assert got == pytest.approx(_explicit_steady_sum(env, src, obs), rel=1e-12)

    @pytest.mark.parametrize("boundary, wind", [
        (FreeSpace(), 0.0), (HalfSpaceReflecting(), 0.0),
        (RectangularDuctReflecting(3.0, 2.5), 0.5)],
        ids=["still_free", "still_half", "windy_duct"])
    def test_steady_sum_where_a_steady_state_exists(self, boundary, wind):
        env = Environment(diffusivity=0.5, wind=Velocity(wind, 0.0, 0.0), boundary=boundary)
        src, obs = np.array([0.0, 1.5, 1.2]), np.array([4.0, 1.0, 0.8])
        got = unit_continuous_kernel(env, src, obs, [math.inf])[0]
        assert got == pytest.approx(_explicit_steady_sum(env, src, obs), rel=1e-12)

    def test_still_air_duct_refuses_infinite_tau(self):
        env = Environment(diffusivity=0.5,
                          boundary=RectangularDuctReflecting(3.0, 2.5))
        src, obs = np.array([0.0, 1.5, 1.2]), np.array([5.0, 1.0, 1.0])
        with pytest.raises(SingularPoint, match="steady state"):
            unit_continuous_kernel(env, src, obs, [math.inf])
        with pytest.raises(SingularPoint, match="steady state"):
            unit_continuous_kernel(env, src, obs, [60.0, math.inf])
        assert np.isfinite(unit_continuous_kernel(env, src, obs, [60.0, 600.0])).all()

    def test_still_air_duct_closed_window_has_zero_limit(self):
        # Emission that stopped has the limit 0; only an open window refuses.
        env = Environment(diffusivity=0.5,
                          boundary=RectangularDuctReflecting(3.0, 2.5))
        obs = (4.0, 1.5, 1.2)
        pulse = SourceSpec.continuous([(0, 1), (5, 0)], position=(1, 1, 1))
        assert concentration_steady(pulse, env, obs) == 0.0
        src = np.array([1.0, 1.0, 1.0])
        assert unit_continuous_kernel(env, src, obs, [math.inf],
                                      taus_end=[math.inf]).tolist() == [0.0]
        for ends in ([5.0], [math.inf, 5.0]):
            with pytest.raises(SingularPoint, match="steady state"):
                unit_continuous_kernel(env, src, obs, [math.inf] * len(ends),
                                       taus_end=ends)
        for rate in (1.0, [(0, 1), (5, 2)]):
            with pytest.raises(SingularPoint, match="steady state"):
                concentration_steady(SourceSpec.continuous(rate, position=(1, 1, 1)),
                                     env, obs)

    def test_erfcx_matches_scipy_on_both_branches(self):
        special = pytest.importorskip("scipy.special")
        x = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(30.0, 1e300, 300)])
        assert channel._erfcx(x) == pytest.approx(special.erfcx(x), rel=1e-14)

    def test_erfcx_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        edges = [v for e in (0.46875, 4.0)
                 for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 5.0))]
        x = np.concatenate([np.linspace(0.0, 30.0, 3001), edges,
                            np.geomspace(30.0, 1e300, 300)])
        with mpmath.workdps(40):
            def exact(v):
                v = mpmath.mpf(v)
                # mpmath's erfc overflows its own series test near 1e154;
                # beyond 30 use the Tricomi form U(1/2, 1/2, x^2) / sqrt(pi).
                if v <= 30:
                    return float(mpmath.erfc(v) * mpmath.exp(v * v))
                return float(mpmath.hyperu(0.5, 0.5, v * v) / mpmath.sqrt(mpmath.pi))

            expect = np.array([exact(v) for v in x])
        assert channel._erfcx(x) == pytest.approx(expect, rel=1e-14, abs=0.0)
        assert channel._erfcx(np.array([np.inf]))[0] == 0.0

    def test_erfcx_is_non_increasing(self):
        # Steps well above the rounding error, across both range edges too.
        across = [e + k * 1e-9 for e in (0.46875, 4.0) for k in range(-3, 4)]
        x = np.sort(np.concatenate([np.linspace(0.0, 30.0, 30001), across,
                                    np.geomspace(30.0, 1e300, 3000), [np.inf]]))
        assert (np.diff(channel._erfcx(x)) <= 0.0).all()

    def test_duct_field_never_calls_math_erfc(self, monkeypatch):
        def no_erfc(x):
            raise AssertionError("erfc evaluated element by element")

        monkeypatch.setattr(math, "erfc", no_erfc)
        env = Environment(diffusivity=0.5, wind=Velocity(0.5, 0.0, 0.0),
                          boundary=RectangularDuctReflecting(3.0, 2.5))
        src = SourceSpec.continuous(1e-3, position=(0.0, 1.5, 1.2))
        q = FieldQuery.from_grid([-2.0, 1.0, 6.0], [0.5, 2.5], [0.5, 2.0], [5.0, 60.0])
        vals = evaluate_field(q, Scenario(env, [src]))
        assert np.isfinite(vals).all() and vals.min() > 0.0

    @pytest.mark.parametrize("boundary", [FreeSpace(), RectangularDuctReflecting(3.0, 2.5)],
                             ids=["free", "duct"])
    @pytest.mark.parametrize("wind", [0.0, 0.7])
    def test_subnormal_ages_are_exactly_zero(self, boundary, wind):
        env = Environment(diffusivity=0.05, wind=Velocity(wind, 0.0, 0.0), boundary=boundary)
        taus = [1e-300, 1e-310, 5e-324]
        with np.errstate(all="raise"):
            got = unit_continuous_kernel(env, np.array([1.0, 1.0, 1.0]),
                                         np.array([2.0, 1.5, 1.2]), taus)
        assert (got == 0.0).all()

    def test_rows_do_not_depend_on_the_batch(self):
        # No size cutoff: a row's bits are the same alone or among 3000 rows
        # (blocks of 4096 pairs), and each row takes its own split by
        # itself: images then modes at tau* for a piece moving along the
        # duct, images then mode (0, 0) at tau0 for one moving across it.
        rng = np.random.default_rng(11)
        n = 3000
        duct = Environment(diffusivity=0.5, wind=Velocity(0.6, 0.0, 0.0),
                           boundary=RectangularDuctReflecting(3.0, 2.5))
        src = np.column_stack([rng.uniform(-3, 3, n), rng.uniform(0.1, 2.9, n),
                               rng.uniform(0.1, 2.4, n)])
        obs = np.column_stack([rng.uniform(-8, 8, n), rng.uniform(0, 3, n),
                               rng.uniform(0, 2.5, n)])
        taus = rng.uniform(1e-3, 400.0, n)
        vel = rng.uniform(-1.0, 1.0, (n, 3))
        vel[::2, 1:] = 0.0  # every other piece moves along the duct
        ends = taus * rng.uniform(0.0, 1.0, n)
        # Pieces moving across the duct past tau0 = 32 (3 m / pi)^2 / D, some
        # still emitting there and some stopped after it, beside ones
        # moving along it.
        tau0 = 32.0 * (3.0 / math.pi) ** 2 / 0.5
        assert (taus[1::2] > tau0).sum() > 500 and (ends[1::2] > tau0).sum() > 200
        # Over both cases more than 500 rows take the modes alone from
        # |xi| >= xi*, in at least three |xi| blocks, beside far rows that the
        # bound check sends back to the split.
        b = duct.boundary
        xi = np.abs(obs[:, 0] - src[:, 0])
        edge = channel._far_edge(b)
        far, back = [], 0
        for drift, lo, rows in [(np.full(n, 0.6), np.zeros(n), np.ones(n, dtype=bool)),
                                (0.6 - vel[:, 0], ends, (vel[:, 1:] == 0.0).all(axis=1))]:
            rows_far = channel._far_rows(b, 0.5, src, obs, drift, lo, taus, rows)[0]
            far.append(rows_far)
            back += np.count_nonzero(rows & (xi >= edge)) - rows_far.size
        far = np.concatenate(far)
        blocks = np.unique(np.floor(np.log2(xi[far] / edge)))
        assert far.size > 500 and blocks.size >= 3 and back > 500
        cases = {"windy duct": {}, "moving piece": {"velocity": vel, "taus_end": ends}}
        for name, extra in cases.items():
            batch = unit_continuous_kernel(duct, src, obs, taus, **extra)
            alone = [unit_continuous_kernel(duct, src[i], obs[i], taus[i:i + 1],
                                            **{k: v[i:i + 1] for k, v in extra.items()})[0]
                     for i in range(n)]
            assert np.array_equal(alone, batch), name

    @pytest.mark.parametrize("boundary", [FreeSpace(), HalfSpaceReflecting(),
                                          RectangularDuctReflecting(3.0, 2.5)],
                             ids=["free", "halfspace", "duct"])
    @pytest.mark.parametrize("wind", [0.0, 0.6], ids=["still", "windy"])
    def test_rows_across_a_block_edge_match_rows_alone(self, boundary, wind):
        # Static sources, rows on both sides of the image sum's first block
        # edge (_BLOCK_PAIRS // M rows). The first block holds a row before
        # emission and one on its source, so it gathers its live pairs; the
        # next block is all live and takes whole planes, as does a live row
        # alone. Every row keeps its bits either way.
        env = Environment(diffusivity=0.5, boundary=boundary, wind=Velocity(
            wind, 0.0 if boundary.walls.get(1) else wind / 3.0, 0.0))
        edge = channel._BLOCK_PAIRS // len(channel.image_transforms(env))
        n = edge + 6
        rng = np.random.default_rng(17)
        src = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(0.1, 2.9, n),
                               rng.uniform(0.1, 2.4, n)])
        # Within 2 m along x of its source, so that no duct row is far.
        obs = np.column_stack([src[:, 0] + rng.uniform(-2, 2, n), rng.uniform(0, 3, n),
                               rng.uniform(0, 2.5, n)])
        taus = rng.uniform(1e-3, 400.0, n)
        taus[0], obs[1] = 0.0, src[1]
        batch = unit_continuous_kernel(env, src, obs, taus)
        assert batch[0] == 0.0 and batch[1] == np.inf
        for i in [0, 1, 2, *range(edge - 6, n)]:
            alone = unit_continuous_kernel(env, src[i], obs[i], taus[i:i + 1])
            assert alone.tobytes() == batch[i:i + 1].tobytes(), i

    def test_still_air_free_space_is_the_erfc_closed_form(self):
        D = 0.5
        rng = np.random.default_rng(23)
        obs = rng.uniform(-3.0, 3.0, (300, 3))
        taus = rng.uniform(1.0, 300.0, 300)
        got = unit_continuous_kernel(Environment(diffusivity=D), np.zeros(3), obs, taus)
        for value, r, tau in zip(got.tolist(), obs.tolist(), taus.tolist()):
            d = math.hypot(*r)
            want = math.erfc(d / (2.0 * math.sqrt(D * tau))) / (4.0 * math.pi * D * d)
            assert value == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_still_air_half_space_is_the_sum_of_its_two_images(self):
        rng = np.random.default_rng(29)
        src = np.column_stack([rng.uniform(-2, 2, (200, 2)), rng.uniform(0, 2, 200)])
        obs = np.column_stack([rng.uniform(-4, 4, (200, 2)), rng.uniform(0, 3, 200)])
        taus = np.concatenate([rng.uniform(0.1, 300.0, 150), np.full(50, math.inf)])
        half = unit_continuous_kernel(Environment(diffusivity=0.5, boundary=HalfSpaceReflecting()),
                                      src, obs, taus)
        free = Environment(diffusivity=0.5)
        want = (unit_continuous_kernel(free, src, obs, taus)
                + unit_continuous_kernel(free, src * [1.0, 1.0, -1.0], obs, taus))
        assert half.tobytes() == want.tobytes()

    @pytest.mark.parametrize("boundary", [FreeSpace(), HalfSpaceReflecting(),
                                          RectangularDuctReflecting(3.0, 2.5)],
                             ids=["free", "halfspace", "duct"])
    @pytest.mark.parametrize("wind", [0.0, 0.6], ids=["still", "windy"])
    def test_observer_on_an_emitting_source_is_infinite(self, boundary, wind):
        env = Environment(diffusivity=0.5, wind=Velocity(wind, 0.0, 0.0), boundary=boundary)
        src = np.array([0.5, 1.5, 1.2])
        obs = np.array([src, [2.0, 1.0, 1.0], src])
        for ends in (None, 0.0):
            got = unit_continuous_kernel(env, src, obs, [30.0, 30.0, 0.0], taus_end=ends)
            assert got[0] == np.inf and 0.0 < got[1] < np.inf and got[2] == 0.0
            alone = unit_continuous_kernel(env, src, src, [30.0], taus_end=ends)
            assert alone[0] == np.inf
        # Emission that stopped 10 s ago takes the finite on-path limit.
        stopped = unit_continuous_kernel(env, src, src, [30.0], taus_end=[10.0])[0]
        assert 0.0 < stopped < np.inf

    def test_hostile_exponents_stay_finite(self):
        # |v| d / 2D = 2.5e4: exp of either exponent alone overflows.
        D, d = 1e-3, 10.0
        env = Environment(diffusivity=D, wind=Velocity(5.0, 0.0, 0.0))
        obs = np.array([[d, 0.0, 0.0], [-d, 0.0, 0.0]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            down, up = unit_continuous_kernel(env, np.zeros(3), obs, [1e3, 1e3])
        assert down == pytest.approx(1.0 / (4 * math.pi * D * d), rel=1e-12)
        assert up == 0.0

    def test_far_steady_value_is_the_point_source_limit(self):
        # d^2 = 1e600 overflows a float; the distance is taken without it.
        D, d = 0.5, 1e300
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = unit_continuous_kernel(Environment(diffusivity=D), np.zeros(3),
                                         np.array([d, 0.0, 0.0]), [math.inf])[0]
        assert got == pytest.approx(1.0 / (4 * math.pi * D * d), rel=1e-12)
        assert got == pytest.approx(1.5915e-301, rel=1e-4)

    def test_piece_keeping_pace_across_an_overflowing_span_is_zero(self):
        # The piece's drift w - u is 0 and its span is inf, so |v| d reads
        # 0 * inf: that pair is left out of the kernel, with no warning.
        env = Environment(diffusivity=0.5, wind=Velocity(1.0, 0.0, 0.0))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = unit_continuous_kernel(env, np.array([-1.7e308, 0.0, 1.0]),
                                         np.array([1.7e308, 0.0, 1.0]), [60.0],
                                         velocity=np.array([1.0, 0.0, 0.0]))
        assert got.tolist() == [0.0]

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
        dose = observer_doses([sus], [(infected, 5.0)], env, 40.0, 50.0)[0]
        assert math.isfinite(dose) and dose > 0.0


class TestMovingSource:
    def test_static_trajectory_degenerates_to_continuous(self):
        traj = Trajectory.static((0, 0, 25), 0.0, 100.0)
        moving = SourceSpec.continuous(1.0, trajectory=traj)
        static = SourceSpec.continuous(1.0, position=(0, 0, 25))
        a = concentration_moving_source(moving, ENV40, (35, 0, 25), 60.0)
        b = concentration_continuous(static, ENV40, (35, 0, 25), 60.0)
        assert a == pytest.approx(b, rel=1e-6)

    def test_past_trajectory_end_holds_last_knot(self):
        # Past its path the source stands at the last knot: the same as a
        # path that waits there explicitly until the observation time.
        traj = Trajectory.straight_line((0, 0, 0), (1, 0, 0), 0.0, 10.0)
        held = Trajectory(np.array([0.0, 10.0, 20.0]),
                          np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
        src = SourceSpec.continuous(1.0, trajectory=traj)
        got = concentration_moving_source(src, ENV40, (5, 0, 0), 20.0, quadrature_tol=1e-10)
        expect = concentration_moving_source(SourceSpec.continuous(1.0, trajectory=held),
                                             ENV40, (5, 0, 0), 20.0, quadrature_tol=1e-10)
        assert got == pytest.approx(expect, rel=1e-9)
        assert concentration_moving_source(src, ENV40, (5, 0, 0), 0.0) == 0.0

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


# Path and observer boxes per boundary: (path lo, path hi, observer lo, observer hi).
_MOVING_BOXES = {
    "free": ((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (-4.0, -4.0, -4.0), (4.0, 4.0, 4.0)),
    "half": ((-2.0, -2.0, 0.2), (2.0, 2.0, 2.5), (-4.0, -4.0, 0.0), (4.0, 4.0, 4.0)),
    "duct": ((-2.0, 0.2, 0.2), (2.0, 2.8, 2.3), (-4.0, 0.0, 0.0), (4.0, 3.0, 2.5)),
}


def _path_distance(traj, obs):
    ss = np.linspace(traj.times[0], traj.times[-1], 2001)
    return float(np.linalg.norm(traj.points_at(ss) - obs, axis=1).min())


@st.composite
def moving_source_cases(draw):
    """(env, source, observer, t): a unit-rate source on a 2-4 knot path
    inside the domain (vertical motion included, so mirror images move
    against the source), wind up to 0.96 m/s, a start time before the path,
    at its first knot or inside a piece, t at a later knot or anywhere up to
    the last one, and the observer at least 0.75 m from the whole path."""
    kind = draw(st.sampled_from(sorted(_BOUNDARIES)))
    boundary, admissible = _BOUNDARIES[kind]
    wind = admissible * np.array([draw(st.floats(-0.55, 0.55)) for _ in range(3)])
    env = Environment(diffusivity=draw(st.floats(0.2, 1.0)), wind=Velocity(*wind),
                      boundary=boundary)
    plo, phi, olo, ohi = _MOVING_BOXES[kind]

    def point(lo, hi):
        return [draw(st.floats(a, b)) for a, b in zip(lo, hi)]

    n_knots = draw(st.integers(2, 4))
    times = 3.0 + np.concatenate([[0.0], np.cumsum([draw(st.floats(1.0, 8.0))
                                                    for _ in range(n_knots - 1)])])
    traj = Trajectory(times, np.array([point(plo, phi) for _ in range(n_knots)]))
    start = draw(st.sampled_from(["before", "first", "inside"]))
    if start == "before":
        start_time = times[0] - draw(st.floats(0.5, 3.0))
    elif start == "first":
        start_time = times[0]
    else:
        k = draw(st.integers(0, n_knots - 2))
        start_time = times[k] + draw(st.floats(0.05, 0.95)) * (times[k + 1] - times[k])
    later = [float(s) for s in times if s > start_time + 0.1]
    if later and draw(st.booleans()):
        t = draw(st.sampled_from(later))
    else:
        t = start_time + draw(st.floats(0.1, 1.0)) * (times[-1] - start_time)
    obs = np.array(point(olo, ohi))
    assume(_path_distance(traj, obs) >= 0.75)
    return env, SourceSpec.continuous(1.0, trajectory=traj, start_time=start_time), obs, t


class TestMovingClosedForm:
    @given(moving_source_cases())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_matches_quadrature(self, case):
        # The oracle runs three decades inside the 1e-9 band.
        env, src, obs, t = case
        oracle = concentration_moving_source(src, env, obs, t, quadrature_tol=1e-12)
        got = concentration_continuous(src, env, obs, t)
        assert got == pytest.approx(oracle, rel=1e-9)
        batch = evaluate_field(FieldQuery(obs[None, :], [t]), Scenario(env, [src]))
        assert batch[0] == pytest.approx(got, rel=1e-14)

    def test_observer_on_current_position_is_singular(self):
        traj = Trajectory(np.array([0.0, 10.0, 20.0]),
                          np.array([[0.0, 0.0, 1.0], [10.0, 0.0, 1.0], [10.0, 5.0, 1.0]]))
        src = SourceSpec.continuous(1.0, trajectory=traj)
        env = Environment(diffusivity=0.5, boundary=HalfSpaceReflecting())
        here = traj.point_at(15.0)
        with pytest.raises(SingularPoint):
            concentration_continuous(src, env, here, 15.0)
        q = _query([((3.0, 2.0, 1.0), 15.0), (here, 15.0),
                    ((10.0, 0.0, 1.0), 10.0)])  # at a knot
        with pytest.raises(FieldEvaluationError) as err:
            evaluate_field(q, Scenario(env, [src]))
        assert [(i, type(e)) for i, e in err.value.failures] == \
            [(1, SingularPoint), (2, SingularPoint)]

    @pytest.mark.parametrize("wind", [0.0, 0.4])
    def test_observer_on_earlier_path_is_finite(self, wind):
        traj = Trajectory(np.array([0.0, 10.0, 20.0]),
                          np.array([[0.0, 0.0, 1.0], [10.0, 0.0, 1.0], [10.0, 5.0, 1.0]]))
        src = SourceSpec.continuous(1.0, trajectory=traj)
        env = Environment(diffusivity=0.5, wind=Velocity(wind, 0.0, 0.0),
                          boundary=HalfSpaceReflecting())
        for obs, t in [((4.0, 0.0, 1.0), 8.0),     # same piece, passed 4 s ago
                       ((4.0, 0.0, 1.0), 15.0),    # an older piece
                       ((10.0, 0.0, 1.0), 17.0)]:  # the knot where it turned
            got = concentration_continuous(src, env, obs, t)
            oracle = concentration_moving_source(src, env, obs, t, quadrature_tol=1e-10)
            assert math.isfinite(got)
            assert got == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("wind", [0.0, 0.4])
    def test_observer_on_extrapolated_point_takes_the_limit(self, wind):
        # At t = 15 the first piece's extrapolation 0 + (1, 0, 0) * 15 lands
        # exactly on the observer (d = 0, emission stopped 5 s ago): the
        # two kernel terms are both infinite, their difference is not.
        traj = Trajectory(np.array([0.0, 10.0, 20.0]),
                          np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 5.0, 0.0]]))
        src = SourceSpec.continuous(1.0, trajectory=traj)
        env = Environment(diffusivity=0.5, wind=Velocity(wind, 0.0, 0.0))
        obs = (15.0, 0.0, 0.0)
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            got = concentration_continuous(src, env, obs, 15.0)
        oracle = concentration_moving_source(src, env, obs, 15.0, quadrature_tol=1e-10)
        assert got == pytest.approx(oracle, rel=1e-6)
        # and it joins the field just off that point continuously
        near = concentration_continuous(src, env, (15.0, 1e-5, 0.0), 15.0)
        assert near == pytest.approx(got, rel=1e-4)

    def test_beyond_trajectory_end_holds_last_knot(self):
        # Past its path the source emits from the last knot, as a path that
        # waits there explicitly does; an observer on that knot is singular.
        traj = Trajectory.straight_line((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.0, 10.0)
        held = Trajectory(np.array([0.0, 10.0, 20.0]),
                          np.array([[0.0, 0.0, 1.0], [10.0, 0.0, 1.0], [10.0, 0.0, 1.0]]))
        src = SourceSpec.continuous(1.0, trajectory=traj)
        waits = SourceSpec.continuous(1.0, trajectory=held)
        obs, times = (5.0, 1.0, 1.0), [9.0, 10.5, 12.0, 10.0 + 5e-10]
        got = evaluate_field(_query([(obs, t) for t in times]), Scenario(ENV40, [src]))
        for t, value in zip(times, got):
            assert value == pytest.approx(concentration_continuous(waits, ENV40, obs, t),
                                          rel=1e-12)
            oracle = concentration_moving_source(src, ENV40, obs, t, quadrature_tol=1e-10)
            assert value == pytest.approx(oracle, rel=1e-6)
        with pytest.raises(SingularPoint):
            concentration_continuous(src, ENV40, (10.0, 0.0, 1.0), 12.0)

    def test_pulse_after_path_end_is_finite(self):
        # A pulse that stopped emitting at 5 s, seen 2 s after its 10 s walk.
        traj = Trajectory.straight_line((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.0, 10.0)
        src = SourceSpec.continuous([(0.0, 1.0), (5.0, 0.0)], trajectory=traj)
        obs = (5.0, 1.0, 1.0)
        got = concentration_continuous(src, ENV40, obs, 12.0)
        batch = evaluate_field(_query([(obs, 12.0)]), Scenario(ENV40, [src]))
        oracle = concentration_moving_source(src, ENV40, obs, 12.0, quadrature_tol=1e-10)
        assert math.isfinite(got) and got > 0.0
        assert batch[0] == got
        assert got == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("t", [12.0, 30.0])
    @pytest.mark.parametrize("rate", [1.0, [(0.0, 1.0), (4.0, 0.5), (8.0, 2.0)],
                                      [(0.0, 1.0), (5.0, 0.0)]],
                             ids=["constant", "stepped", "pulse"])
    @pytest.mark.parametrize("boundary, wind", [
        (FreeSpace(), (0.0, 0.0, 0.0)),
        (HalfSpaceReflecting(), (0.4, 0.2, 0.0)),
        (RectangularDuctReflecting(3.0, 2.5), (0.0, 0.0, 0.0))],
        ids=["free", "windy_half", "duct"])
    def test_past_path_end_matches_quadrature(self, boundary, wind, rate, t):
        env = Environment(diffusivity=0.5, wind=Velocity(*wind), boundary=boundary)
        traj = Trajectory.straight_line((-5.0, 1.5, 1.2), (1.0, 0.0, 0.0), 0.0, 10.0)
        src = SourceSpec.continuous(rate, trajectory=traj)
        obs = (2.0, 1.0, 0.8)
        got = evaluate_field(_query([(obs, t)]), Scenario(env, [src]))[0]
        oracle = concentration_moving_source(src, env, obs, t, quadrature_tol=1e-10)
        assert got > 0.0
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_start_before_trajectory_holds_first_knot(self):
        traj = Trajectory.straight_line((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 5.0, 20.0)
        src = SourceSpec.continuous(1.0, trajectory=traj, start_time=0.0)
        env = Environment(diffusivity=0.5, wind=Velocity(0.2, 0.1, 0.0),
                          boundary=HalfSpaceReflecting())
        obs, t = (4.0, 1.5, 0.5), 12.0
        got = concentration_continuous(src, env, obs, t)
        oracle = concentration_moving_source(src, env, obs, t, quadrature_tol=1e-11)
        assert got == pytest.approx(oracle, rel=1e-9)
        # = the static hold over [0, 5] plus the moving part from 5 s on.
        late = SourceSpec.continuous(1.0, trajectory=traj, start_time=5.0)
        static = concentration_continuous(
            SourceSpec.continuous(1.0, position=(0.0, 0.0, 1.0)), env, obs, t)
        static_late = concentration_continuous(
            SourceSpec.continuous(1.0, position=(0.0, 0.0, 1.0)), env, obs, t - 5.0)
        assert got == pytest.approx(static - static_late
                                    + concentration_continuous(late, env, obs, t), rel=1e-12)
        assert concentration_continuous(src, env, obs, 0.0) == 0.0

    def test_no_source_takes_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("field sent to quadrature")

        monkeypatch.setattr(channel, "adaptive_emission_integral", no_quadrature)
        traj = Trajectory.straight_line((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.0, 20.0)
        pulse = [(0.0, 1.0), (5.0, 0.0)]
        sources = [SourceSpec.instant((0.0, 1.0, 1.0), 1.0, start_time=2.0),
                   SourceSpec.continuous(1.0, position=(0.0, 1.0, 1.0)),
                   SourceSpec.continuous(pulse, position=(0.0, 1.0, 1.0)),
                   SourceSpec.continuous(1.0, trajectory=traj),
                   SourceSpec.continuous(pulse, trajectory=traj)]
        q = _query([((3.0, 2.0, 1.0), 10.0)])
        for src in sources:
            scalar = concentration_instant if src.kind is channel.SourceKind.INSTANT \
                else concentration_continuous
            a = scalar(src, ENV40, (3.0, 2.0, 1.0), 10.0)
            assert evaluate_field(q, Scenario(ENV40, [src]))[0] == a > 0.0
        # the moving pulse is the constant source stopped after 5 s
        const = concentration_continuous(sources[3], ENV40, (3.0, 2.0, 1.0), 10.0)
        assert 0.0 < concentration_continuous(sources[4], ENV40, (3.0, 2.0, 1.0), 10.0) \
            < const

    def test_singular_passage_reports_singular_point(self):
        # The observer sits on the path at the passage instant: the closed
        # form reports the divergence itself, where the quadrature (still
        # the oracle, see test_quadrature_failure_at_singular_passage)
        # fails to converge.
        traj = Trajectory.straight_line((0, 0, 25), (2, 0, 0), 0.0, 100.0)
        src = SourceSpec.continuous(1.0, trajectory=traj)
        q = _query([((35, 0, 25), 17.5), ((35, 0, 25), 20.0)])
        with pytest.raises(FieldEvaluationError) as err:
            evaluate_field(q, Scenario(ENV40, [src]))
        assert [(i, type(e)) for i, e in err.value.failures] == [(0, SingularPoint)]

    @pytest.mark.parametrize("kind", sorted(_BOUNDARIES))
    def test_constant_rate_moving_never_takes_quadrature(self, kind, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("constant-rate moving source sent to quadrature")

        monkeypatch.setattr(channel, "adaptive_emission_integral", no_quadrature)
        boundary, admissible = _BOUNDARIES[kind]
        env = Environment(diffusivity=0.5, wind=Velocity(*(0.3 * admissible)),
                          boundary=boundary)
        traj = Trajectory(np.array([0.0, 20.0, 40.0]),
                          np.array([[-1.0, 0.5, 0.5], [1.0, 2.0, 1.5], [0.0, 1.0, 2.0]]))
        src = SourceSpec.continuous(2e-3, trajectory=traj, start_time=5.0)
        q = FieldQuery.from_grid([-2.0, 3.0], [0.25, 2.75], [0.25, 2.25], [3.0, 30.0, 40.0])
        vals = evaluate_field(q, Scenario(env, [src]))
        assert np.isfinite(vals).all() and vals.max() > 0.0
        assert concentration_continuous(src, env, (3.0, 0.25, 0.25), 30.0) == \
            pytest.approx(vals[q.times.tolist().index(30.0) + 4], rel=1e-14)

    @pytest.mark.parametrize("boundary", ["", "halfspace", "duct"])
    def test_walk_past_cli_never_takes_quadrature(self, boundary, tmp_path, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("walk-past field sent to quadrature")

        monkeypatch.setattr(channel, "adaptive_emission_integral", no_quadrature)
        cfg = os.path.join(CONFIGS, "walk_past.cfg")
        if boundary:
            text = Path(cfg).read_text(encoding="utf-8")
            extra = f"boundary = {boundary}\n"
            if boundary == "duct":
                extra += "duct_width_m = 10\nduct_height_m = 50\nimage_order = 2\n"
            cfg = tmp_path / "walk.cfg"
            cfg.write_text(text.replace("diffusivity_m2s = 40.0\n",
                                        "diffusivity_m2s = 40.0\n" + extra))
        out = tmp_path / "grid.csv"
        monkeypatch.setattr(sys, "argv", ["virodyne", "field", "--config", str(cfg),
                                          "--speed", "2", "--time", "60", "--out", str(out)])
        monkeypatch.delitem(sys.modules, "virodyne.cli", raising=False)
        with pytest.raises(SystemExit) as done:
            runpy.run_module("virodyne.cli", run_name="__main__")
        assert done.value.code == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        c = np.array([float(r[4]) for r in rows])
        assert len(c) == 101 and np.isfinite(c).all() and c.max() > 0.0


class TestEmissionQuadrature:
    """The bounded-memory Simpson refinement against the version that kept
    every node (tests/quadrature_oracle.py)."""

    WALK = Trajectory.straight_line((0.0, 0.0, 25.0), (2.0, 0.0, 0.0), 0.0, 100.0)
    BENT = Trajectory(np.array([0.0, 5.0, 12.0]),
                      np.array([[0.0, 1.0, 1.0], [3.0, 2.0, 1.5], [2.0, 0.5, 0.3]]))
    DUCT = Environment(diffusivity=1.0, wind=Velocity(0.3, 0.0, 0.0),
                       boundary=RectangularDuctReflecting(3.0, 2.5))

    @classmethod
    def integrands(cls):
        def emission(env, traj, obs, t):
            return lambda ss: unit_instant_kernel(env, traj.points_at(ss), np.array(obs), t - ss)

        return [
            ("smooth", lambda x: np.exp(-x) * np.sin(3.0 * x) + 2.0, 0.0, 5.0, 1e-13),
            ("kink", lambda x: np.abs(x - 1.0 / 3.0) ** 1.5 + np.cos(x), 0.0, 1.0, 1e-13),
            ("walk", emission(ENV40, cls.WALK, (35.0, 0.0, 20.0), 30.0), 0.0, 30.0, 1e-12),
            ("duct", emission(cls.DUCT, cls.BENT, (1.5, 1.5, 1.0), 12.0), 0.0, 12.0, 1e-13),
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_matches_full_node_reference(self, case):
        _, f, a, b, tol = self.integrands()[case]
        sizes = []

        def recording(x):
            sizes.append(x.size)
            return f(x)

        got = channel.adaptive_emission_integral(recording, a, b, tol)
        want = quadrature_oracle.adaptive_emission_integral(f, a, b, tol)
        assert got == pytest.approx(want, rel=1e-14)
        assert max(sizes) <= channel._QUADRATURE_BLOCK

    def test_deep_levels_are_evaluated_in_blocks(self):
        _, f, a, b, tol = self.integrands()[1]
        sizes = []
        channel.adaptive_emission_integral(lambda x: sizes.append(x.size) or f(x), a, b, tol)
        # 16 intervals doubled 12 times (levels 11 and 12 both meet the
        # tolerance): the last level adds 32768 nodes, eight blocks.
        assert max(sizes) == channel._QUADRATURE_BLOCK
        assert sum(sizes) == 16 * 2 ** 12 + 1
        assert sizes[-8:] == [channel._QUADRATURE_BLOCK] * 8

    def test_chance_agreement_of_two_coarse_levels_is_not_accepted(self):
        # A 2.684 s static hold in the duct, seen as it ends. At rel_tol
        # 1e-11 the first level whose Richardson estimate met the tolerance
        # was 8.0e-10 off the closed form; two successive levels must agree.
        env = Environment(diffusivity=0.835, wind=Velocity(0.0937, 0.0, 0.0),
                          boundary=RectangularDuctReflecting(3.0, 2.5))
        src, obs, tau = np.array([0.0146, 0.8028, 1.1269]), np.array([-3.476, 2.689, 0.0277]), 2.684
        tol = 1e-11
        got = channel.adaptive_emission_integral(
            lambda ss: unit_instant_kernel(env, src, obs, tau - ss), 0.0, tau, tol)
        want = unit_continuous_kernel(env, src, obs, np.array([tau]))[0]
        assert got == pytest.approx(want, rel=10 * tol)

    def test_failure_matches_full_node_reference(self):
        f = lambda x: np.sqrt(np.abs(x - 1.0 / 3.0))  # noqa: E731
        with pytest.raises(QuadratureFailure) as got:
            channel.adaptive_emission_integral(f, 0.0, 1.0, 1e-15, max_levels=6)
        with pytest.raises(QuadratureFailure) as want:
            quadrature_oracle.adaptive_emission_integral(f, 0.0, 1.0, 1e-15, max_levels=6)
        assert got.value.estimate == pytest.approx(want.value.estimate, rel=1e-14)
        assert got.value.error_bound == pytest.approx(want.value.error_bound, rel=1e-9)
        assert str(got.value).startswith("emission quadrature did not reach rel_tol=1e-15")

    def test_multi_knot_path_is_integrated_between_knots(self, monkeypatch):
        windows = []
        quad = channel.adaptive_emission_integral
        monkeypatch.setattr(channel, "adaptive_emission_integral",
                            lambda f, a, b, *r: windows.append((a, b)) or quad(f, a, b, *r))
        src = SourceSpec.continuous(1.0, trajectory=self.BENT, start_time=2.0)
        concentration_moving_source(src, self.DUCT, (1.5, 1.5, 1.0), 12.0)
        assert windows == [(2.0, 5.0), (5.0, 12.0)]


# The stepped-rate sweep: its environments, and a path inside the duct.
_STEP_ENVS = {
    "free": Environment(diffusivity=0.5),
    "windy": Environment(diffusivity=0.5, wind=Velocity(0.4, -0.2, 0.1)),
    "half": Environment(diffusivity=0.5, wind=Velocity(0.3, 0.1, 0.0),
                        boundary=HalfSpaceReflecting()),
    "duct": Environment(diffusivity=0.5, wind=Velocity(0.3, 0.0, 0.0),
                        boundary=RectangularDuctReflecting(3.0, 2.5)),
}
_STEP_PATH = Trajectory(np.array([1.0, 7.0, 13.0]),
                        np.array([[-1.0, 0.6, 0.5], [1.0, 2.2, 1.8], [0.3, 1.0, 2.0]]))
# (steps, start_time): a pulse; breathing, speaking, silence and a cough; a
# schedule cut by a later start; and one that opens on a zero rate.
_SCHEDULES = [
    ([(0.0, 1.0), (4.0, 0.0)], 0.0),
    ([(1.0, 0.5), (3.5, 2.0), (6.0, 0.0), (9.0, 1.5)], 0.0),
    ([(0.0, 2.0), (5.0, 0.3)], 2.5),
    ([(3.0, 0.0), (4.5, 1.0), (8.0, 0.25)], 1.0),
]


class TestSteppedRate:
    @pytest.mark.parametrize("schedule", range(len(_SCHEDULES)))
    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
    @pytest.mark.parametrize("kind", sorted(_STEP_ENVS))
    def test_windows_match_quadrature(self, kind, moving, schedule):
        env = _STEP_ENVS[kind]
        steps, start = _SCHEDULES[schedule]
        where = {"trajectory": _STEP_PATH} if moving else {"position": (0.0, 1.2, 1.0)}
        src = SourceSpec.continuous(steps, start_time=start, **where)
        obs = (3.0, 2.5, 0.4)
        for t in (5.0, 12.0):
            oracle = concentration_moving_source(src, env, obs, t, quadrature_tol=1e-13)
            got = concentration_continuous(src, env, obs, t)
            assert got == pytest.approx(oracle, rel=1e-10, abs=0.0)
            assert evaluate_field(FieldQuery(np.array([obs]), [t]),
                                  Scenario(env, [src]))[0] == got

    def test_windows_of_each_form(self):
        assert SourceSpec.continuous(2.0, position=(0, 0, 0), start_time=3.0).windows \
            == ((3.0, math.inf, 2.0),)
        assert SourceSpec.continuous(0.0, position=(0, 0, 0)).windows == ()
        assert SourceSpec.instant((0, 0, 0), 1.0).windows == ()
        steps, start = _SCHEDULES[1]
        src = SourceSpec.continuous(steps, position=(0, 0, 0), start_time=2.0)
        assert src.windows == ((2.0, 3.5, 0.5), (3.5, 6.0, 2.0), (9.0, math.inf, 1.5))
        assert [src.rate_at(t) for t in (1.0, 2.0, 3.5, 7.0, 9.0, 1e6)] == \
            [0.0, 0.5, 2.0, 0.0, 1.5, 1.5]
        steps, start = _SCHEDULES[3]
        assert SourceSpec.continuous(steps, position=(0, 0, 0), start_time=start).windows \
            == ((4.5, 8.0, 1.0), (8.0, math.inf, 0.25))

    @pytest.mark.parametrize("kind, strength", [
        ("continuous", [(0.0, -1.0)]),
        ("continuous", [(0.0, math.nan)]),
        ("continuous", [(0.0, math.inf)]),
        ("continuous", [(0.0, 1.0), (0.0, 2.0)]),
        ("continuous", [(2.0, 1.0), (1.0, 2.0)]),
        ("continuous", [(math.nan, 1.0)]),
        ("continuous", [(math.inf, 1.0)]),
        ("continuous", []),
        ("continuous", [(0.0, 1.0, 2.0)]),
        ("instant", [(0.0, 1.0)]),
        ("continuous", lambda s: 1.0),
    ], ids=["negative", "nan_rate", "inf_rate", "repeated", "decreasing", "nan_time",
            "inf_time", "empty", "triple", "instant", "callable"])
    def test_bad_schedule_is_rejected(self, kind, strength):
        with pytest.raises(ValueError):
            SourceSpec(channel.SourceKind(kind), strength, position=(0, 0, 0))

    def test_zero_rate_source_reads_zero_on_itself(self):
        traj = Trajectory.straight_line((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.0, 20.0)
        static = SourceSpec.continuous(0.0, position=(1.0, 2.0, 3.0))
        moving = SourceSpec.continuous(0.0, trajectory=traj)
        assert concentration_continuous(static, ENV40, (1.0, 2.0, 3.0), 10.0) == 0.0
        assert concentration_steady(static, ENV40, (1.0, 2.0, 3.0)) == 0.0
        assert concentration_continuous(moving, ENV40, traj.point_at(10.0), 10.0) == 0.0
        q = _query([((1.0, 2.0, 3.0), 10.0), (traj.point_at(5.0), 5.0)])
        assert (evaluate_field(q, Scenario(ENV40, [static, moving])) == 0.0).all()

    def test_steady_state_keeps_the_windows_that_never_close(self):
        env = Environment(diffusivity=0.5, wind=Velocity(0.3, 0.0, 0.0))
        steps, start = _SCHEDULES[1]
        src = SourceSpec.continuous(steps, position=(0.0, 1.2, 1.0), start_time=start)
        last = SourceSpec.continuous(steps[-1][1], position=(0.0, 1.2, 1.0))
        assert concentration_steady(src, env, (3.0, 2.5, 0.4)) == \
            concentration_steady(last, env, (3.0, 2.5, 0.4))
        pulse = SourceSpec.continuous(_SCHEDULES[0][0], position=(0.0, 1.2, 1.0))
        assert concentration_steady(pulse, env, (3.0, 2.5, 0.4)) == 0.0

    @pytest.mark.parametrize("wind", [0.0, 0.4])
    def test_on_source_only_while_it_emits(self, wind):
        env = Environment(diffusivity=0.5, wind=Velocity(wind, 0.0, 0.0))
        src = SourceSpec.continuous([(0.0, 1.0), (10.0, 0.0)], position=(1.0, 2.0, 3.0))
        with pytest.raises(SingularPoint):
            concentration_continuous(src, env, (1.0, 2.0, 3.0), 5.0)
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            after = concentration_continuous(src, env, (1.0, 2.0, 3.0), 20.0)
        oracle = concentration_moving_source(src, env, (1.0, 2.0, 3.0), 20.0,
                                             quadrature_tol=1e-10)
        assert after == pytest.approx(oracle, rel=1e-6)


def _one_point_field(sources, env, r, t):
    """evaluate_field of the sources at one point."""
    return float(evaluate_field(_query([(r, t)]), Scenario(env, sources))[0])


class TestMultiSource:
    def test_singleton_equals_single(self):
        src = SourceSpec.continuous(1.0, position=(0, 0, 0))
        a = _one_point_field([src], ENV40, (5, 5, 5), 12.0)
        b = concentration_continuous(src, ENV40, (5, 5, 5), 12.0)
        assert a == b

    def test_two_colocated_sources_double(self):
        src = SourceSpec.instant((1, 1, 1), 0.7)
        single = concentration_instant(src, ENV40, (3, 0, 0), 4.0)
        both = _one_point_field([src, src], ENV40, (3, 0, 0), 4.0)
        assert both == pytest.approx(2 * single, rel=1e-14)

    def test_mixed_kinds_superpose(self):
        s1 = SourceSpec.instant((0, 0, 0), 1.0)
        s2 = SourceSpec.continuous(0.5, position=(10, 0, 0))
        r, t = (5, 0, 0), 8.0
        total = _one_point_field([s1, s2], ENV40, r, t)
        assert total == pytest.approx(
            concentration_instant(s1, ENV40, r, t)
            + concentration_continuous(s2, ENV40, r, t))


class TestBoundaries:
    @pytest.mark.parametrize("boundary, outside", [
        (RectangularDuctReflecting(3.0, 2.5), (0.0, -0.1, 1.0)),
        (HalfSpaceReflecting(), (0.0, 1.0, -0.1)),
    ], ids=["duct", "halfspace"])
    def test_source_outside_its_region_is_out_of_domain(self, boundary, outside):
        # A static position, an instant release, and a trajectory whose
        # last knot leaves through a wall; a source on a wall is inside.
        env = Environment(diffusivity=0.5, boundary=boundary)
        q = FieldQuery(np.array([[1.0, 1.0, 1.0]]), [60.0])
        leaving = Trajectory(np.array([0.0, 60.0]), np.array([(0.0, 1.0, 1.0), outside]))
        for src in (SourceSpec.continuous(1.0, position=outside),
                    SourceSpec.instant(outside, 1.0),
                    SourceSpec.continuous(1.0, trajectory=leaving)):
            with pytest.raises(OutOfDomain, match="outside"):
                evaluate_field(q, Scenario(env, [src]))
        with pytest.raises(OutOfDomain):
            concentration_continuous(SourceSpec.continuous(1.0, position=outside), env,
                                     (1.0, 1.0, 1.0), 60.0)
        on_wall = SourceSpec.continuous(1.0, position=(0.0, 0.0, 0.0))
        assert evaluate_field(q, Scenario(env, [on_wall]))[0] > 0.0

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
        duct = RectangularDuctReflecting(width=2.0, height=1.5)
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
        duct = RectangularDuctReflecting(width=1.0, height=1.0)
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
        with pytest.raises(ValueError):
            Environment(diffusivity=1.0, wind=Velocity(0, 0, -0.5),
                        boundary=RectangularDuctReflecting(1, 1))
        Environment(diffusivity=1.0, wind=Velocity(2, 0, 0),
                    boundary=RectangularDuctReflecting(1, 1))
        Environment(diffusivity=1.0, wind=Velocity(1.5, -2, 0),
                    boundary=HalfSpaceReflecting())
        Environment(diffusivity=1.0, wind=Velocity(0.3, -2, 4), boundary=FreeSpace())

    def test_still_air_duct_has_no_steady_state(self):
        # The (0, 0) mode grows like sqrt(t); with wind along the duct the
        # field settles.
        src = SourceSpec.continuous(1.0, position=(0.0, 1.5, 1.2))
        duct = RectangularDuctReflecting(3.0, 2.5)
        with pytest.raises(SingularPoint, match="steady state"):
            concentration_steady(src, Environment(diffusivity=0.5, boundary=duct),
                                 (5.0, 1.0, 1.0))
        windy = Environment(diffusivity=0.5, wind=Velocity(0.5, 0.0, 0.0), boundary=duct)
        assert math.isfinite(concentration_steady(src, windy, (5.0, 1.0, 1.0)))
        for boundary in (FreeSpace(), HalfSpaceReflecting()):
            still = Environment(diffusivity=0.5, boundary=boundary)
            assert math.isfinite(concentration_steady(src, still, (5.0, 1.0, 1.0)))

    def test_image_points_counts(self):
        assert len(channel.image_transforms(ENV40)) == 1
        env_h = Environment(diffusivity=1.0, boundary=HalfSpaceReflecting())
        assert len(channel.image_transforms(env_h)) == 2
        # A square duct keeps 3 reflections per wall pair up to tau*: the
        # least n with (4 n^2 - 1) >= 4 * 32 * 0.16.
        duct = RectangularDuctReflecting(1.0, 1.0)
        env_d = Environment(diffusivity=1.0, boundary=duct)
        assert len(channel.image_transforms(env_d)) == (2 * 7) ** 2

    @pytest.mark.parametrize("boundary, wind", [
        (FreeSpace(), (0.3, -0.2, 0.4)),
        (HalfSpaceReflecting(), (0.3, -0.2, 0.0)),
        (RectangularDuctReflecting(2.0, 1.5), (0.4, 0.0, 0.0)),
    ], ids=["free", "halfspace", "duct"])
    def test_instant_kernel_is_explicit_image_sum(self, boundary, wind):
        # The per-axis product against the 3-D Gaussian of every image; in
        # the duct, ages on both sides of tau* = 0.72 s against the image
        # sum of tests/duct_oracle.py.
        env = Environment(diffusivity=0.5, wind=Velocity(*wind), boundary=boundary)
        rng = np.random.default_rng(7)
        src = rng.uniform([-1, 0, 0], [1, 2, 1.5], (40, 3))
        obs = rng.uniform([-1, 0, 0], [1, 2, 1.5], (40, 3))
        taus = rng.uniform(0.05, 3.0, 40)
        got = unit_instant_kernel(env, src, obs, taus)
        if isinstance(boundary, RectangularDuctReflecting):
            for r0, r, tau, g in zip(src, obs, taus, got):
                expect = duct_oracle.instant(boundary.width, boundary.height, 0.5,
                                             wind[0], r0, r, tau)
                assert g == pytest.approx(expect, rel=1e-12)
            return
        flips, offsets = map(np.array, zip(*channel.image_transforms(env)))
        for r0, r, tau, g in zip(src, obs, taus, got):
            four_dt = 4.0 * env.diffusivity * tau
            dr = r - (flips * r0 + offsets + env.wind_arr * tau)
            expect = np.exp(-(dr * dr).sum(axis=1) / four_dt).sum() \
                / (math.pi * four_dt) ** 1.5
            assert g == pytest.approx(expect, rel=1e-12)


class TestImageTransforms:
    DUCT = RectangularDuctReflecting(1.0, 2.0)

    @staticmethod
    def built_afresh(boundary):
        """The image maps written out: identity first, then the duct's
        (y flip, y offset, z flip, z offset) sweep in loop order. A 1 x 2 m
        duct keeps 3 reflections per wall pair along y and 2 along z up to
        tau*: the least n with (4 n^2 - 1) (L / 1 m)^2 >= 4 * 32 * 0.16."""
        ident = ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        if isinstance(boundary, FreeSpace):
            return [ident]
        if isinstance(boundary, HalfSpaceReflecting):
            return [ident, ([1.0, 1.0, -1.0], [0.0, 0.0, 0.0])]
        return list(zip(*(a.tolist() for a in duct_oracle.image_maps(
            boundary.width, boundary.height, 3, 2))))

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
        duct = RectangularDuctReflecting(3.0, 2.5)
        env = Environment(diffusivity=1.0, boundary=duct)
        channel._image_stack.cache_clear()
        first = channel.image_transforms(env)
        n_calls = len(calls)
        second = channel.image_transforms(Environment(diffusivity=2.0, boundary=duct))
        assert n_calls > 0 and len(calls) == n_calls
        # 2 reflections per wall pair along the 3 m side, 3 along the 2.5 m one.
        assert len(first) == len(second) == (2 * 5) * (2 * 7)

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
        q = _query([])
        out = evaluate_field(q, Scenario(ENV40, [SourceSpec.instant((0, 0, 0), 1.0)]))
        assert out.size == 0

    def test_permutation_purity(self):
        src = SourceSpec.instant((0, 0, 0), 1.0)
        pts = [((x, y, 0.0), 3.0) for x in (1, 2, 3) for y in (0, 1, 4)]
        q = _query(pts)
        out = evaluate_field(q, Scenario(ENV40, [src]))
        perm = list(reversed(range(len(pts))))
        q2 = _query([pts[i] for i in perm])
        out2 = evaluate_field(q2, Scenario(ENV40, [src]))
        assert np.array_equal(out2, out[perm])

    def test_matches_scalar_calls(self):
        sources = [SourceSpec.instant((0, 0, 0), 1.0),
                   SourceSpec.continuous(0.3, position=(5, 5, 5))]
        pts = [((1.0, 2.0, 0.5), 4.0), ((4.0, 4.0, 4.0), 0.5),
               ((9.0, 9.0, 9.0), 25.0)]
        q = _query(pts)
        out = evaluate_field(q, Scenario(ENV40, sources))
        for (r, t), got in zip(pts, out):
            want = concentration_instant(sources[0], ENV40, r, t) \
                + concentration_continuous(sources[1], ENV40, r, t)
            assert got == pytest.approx(want, rel=1e-12)

    def test_pre_emission_points_are_zero(self):
        src = SourceSpec.continuous(1.0, position=(0, 0, 0), start_time=100.0)
        q = _query([((1, 1, 1), 5.0), ((1, 1, 1), 99.9)])
        out = evaluate_field(q, Scenario(ENV40, [src]))
        assert (out == 0.0).all()

    def test_thread_count_invariance(self, monkeypatch):
        src = SourceSpec.continuous(1.0, position=(0, 0, 25))
        q = FieldQuery.from_grid([35.0], [0.0], np.linspace(0, 50, 21), [30.0])
        monkeypatch.setenv("VIRODYNE_THREADS", "1")
        a = evaluate_field(q, Scenario(ENV40, [src]))
        monkeypatch.setenv("VIRODYNE_THREADS", "8")
        b = evaluate_field(q, Scenario(ENV40, [src]))
        assert np.array_equal(a, b)

    def test_pointwise_errors_carry_indices(self):
        from virodyne.errors import FieldEvaluationError
        src = SourceSpec.continuous(1.0, position=(0, 0, 0))
        q = _query([
            ((1, 0, 0), 5.0),
            ((0, 0, 0), 5.0),  # singular: observer on the source
            ((2, 0, 0), 5.0),
        ])
        with pytest.raises(FieldEvaluationError) as err:
            evaluate_field(q, Scenario(ENV40, [src]))
        assert [i for i, _ in err.value.failures] == [1]

        # Longer than one 2048-point chunk: indices are global, and the
        # values equal the two halves evaluated on their own.
        pts = [((1.0 + 0.01 * i, 0.5, 0.0), 5.0) for i in range(3000)]
        scenario = Scenario(ENV40, [src])
        whole = evaluate_field(_query(pts), scenario)
        halves = [evaluate_field(_query(part), scenario)
                  for part in (pts[:2048], pts[2048:])]
        assert np.array_equal(whole, np.concatenate(halves))
        pts[2500] = ((0.0, 0.0, 0.0), 5.0)
        with pytest.raises(FieldEvaluationError) as err:
            evaluate_field(_query(pts), scenario)
        assert [i for i, _ in err.value.failures] == [2500]
