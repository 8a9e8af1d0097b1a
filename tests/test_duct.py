"""The duct field, images for young ages and cross-section modes for old
ones, against the explicit image sum of tests/duct_oracle.py."""

import math

import numpy as np
import pytest

import duct_oracle
from virodyne import channel
from virodyne.channel import (
    Environment,
    FieldQuery,
    RectangularDuctReflecting,
    Scenario,
    SourceSpec,
    concentration_continuous,
    evaluate_field,
    unit_continuous_kernel,
    unit_instant_kernel,
)
from virodyne.core import Velocity
from virodyne.errors import FieldEvaluationError, SingularPoint

W, H = 3.0, 2.5
DUCT = RectangularDuctReflecting(W, H)
SRC = np.array([0.0, 1.1, 0.9])
# Downstream by a wall, upstream, in the source's cross-section by a
# corner, far downstream, and 1 m from the source.
OBS = np.array([(5.0, 2.8, 0.2), (-3.0, 1.5, 1.2), (0.0, 0.3, 2.4),
                (15.0, 1.0, 1.0), (1.0, 1.1, 0.9)])


def _ages(diffusivity, wind):
    """Below tau*, at it, 60, 600 and 3600 s, and the steady state in wind."""
    tau_star = 0.16 * min(W, H) ** 2 / diffusivity
    return [tau_star / 2, tau_star, 60.0, 600.0, 3600.0] + [math.inf] * (wind >= 0.5)


@pytest.mark.parametrize("wind", [0.0, 1e-6, 0.5], ids=["still", "near_still", "windy"])
@pytest.mark.parametrize("diffusivity", [0.05, 0.5, 5.0])
def test_continuous_kernel_is_the_image_sum(diffusivity, wind):
    # In still air order 10 was 26% off at 3600 s; the split is exact.
    env = Environment(diffusivity=diffusivity, wind=Velocity(wind, 0.0, 0.0), boundary=DUCT)
    n = len(OBS)
    for t in _ages(diffusivity, wind):
        got = unit_continuous_kernel(env, SRC, OBS, np.full(n, t))
        want = [duct_oracle.continuous(W, H, diffusivity, wind, SRC, r, t) for r in OBS]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t
        if math.isinf(t):
            continue
        # A window that stopped at half the age.
        got = unit_continuous_kernel(env, SRC, OBS[:2], np.full(2, t), taus_end=np.full(2, t / 2))
        want = [duct_oracle.continuous(W, H, diffusivity, wind, SRC, r, t, tau_end=t / 2)
                for r in OBS[:2]]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t


@pytest.mark.parametrize("wind", [0.0, 1e-6, 0.5], ids=["still", "near_still", "windy"])
@pytest.mark.parametrize("diffusivity", [0.05, 0.5, 5.0])
def test_instant_kernel_is_the_image_sum(diffusivity, wind):
    env = Environment(diffusivity=diffusivity, wind=Velocity(wind, 0.0, 0.0), boundary=DUCT)
    for t in _ages(diffusivity, wind)[:5]:
        got = unit_instant_kernel(env, SRC, OBS, np.full(len(OBS), t))
        want = [duct_oracle.instant(W, H, diffusivity, wind, SRC, r, t) for r in OBS]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t


@pytest.mark.parametrize("wind", [0.0, 0.3, 0.5])
def test_piece_moving_along_the_duct_is_the_image_sum(wind):
    # At wind 0.3 the piece keeps pace with the air: no drift at all.
    env = Environment(diffusivity=0.5, wind=Velocity(wind, 0.0, 0.0), boundary=DUCT)
    vel = (0.3, 0.0, 0.0)
    for t, end in [(1.0, 0.0), (60.0, 0.0), (600.0, 0.0), (600.0, 30.0)]:
        got = unit_continuous_kernel(env, SRC, OBS[:3], np.full(3, t), velocity=vel,
                                     taus_end=np.full(3, end))
        want = [duct_oracle.continuous(W, H, 0.5, wind, SRC, r, t, tau_end=end, velocity=vel)
                for r in OBS[:3]]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t


def test_piece_moving_across_the_duct_keeps_ten_reflections():
    # Its images move against it and no mode separates: the image sum stays
    # truncated at 10 reflections per wall pair.
    env = Environment(diffusivity=0.5, wind=Velocity(0.4, 0.0, 0.0), boundary=DUCT)
    vel = (0.2, 0.1, -0.05)
    for t, end in [(1.0, 0.0), (60.0, 0.0), (60.0, 20.0)]:
        got = unit_continuous_kernel(env, SRC, OBS[:3], np.full(3, t), velocity=vel,
                                     taus_end=np.full(3, end))
        want = [duct_oracle.continuous(W, H, 0.5, 0.4, SRC, r, t, tau_end=end, velocity=vel,
                                       order=(10, 10)) for r in OBS[:3]]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t


@pytest.mark.parametrize("diffusivity", [0.05, 5.0])
@pytest.mark.parametrize("wind", [1e-6, 0.5])
def test_far_observers_raise_no_warning(diffusivity, wind):
    env = Environment(diffusivity=diffusivity, wind=Velocity(wind, 0.0, 0.0), boundary=DUCT)
    xs = np.array([-1e4, -1e3, 0.0, 1e3, 1e4])
    obs = np.column_stack([xs, np.full(5, 2.0), np.full(5, 0.5)])
    for t in _ages(diffusivity, 0.5)[::2] + [math.inf]:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = unit_continuous_kernel(env, SRC, obs, np.full(5, t))
            if math.isfinite(t):
                unit_instant_kernel(env, SRC, obs, np.full(5, t))
        assert np.isfinite(got).all() and (got >= 0.0).all()
    if wind == 0.5:
        # Far downstream the steady plume fills the duct: rate / (u W H).
        assert got[-1] == pytest.approx(1.0 / (wind * W * H), rel=1e-12)


def test_observer_on_an_emitting_source_is_singular():
    env = Environment(diffusivity=0.5, wind=Velocity(0.5, 0.0, 0.0), boundary=DUCT)
    src = SourceSpec.continuous(1.0, position=tuple(SRC))
    with pytest.raises(SingularPoint):
        concentration_continuous(src, env, tuple(SRC), 600.0)
    q = FieldQuery(np.array([OBS[0], SRC]), [600.0, 600.0])
    with pytest.raises(FieldEvaluationError) as err:
        evaluate_field(q, Scenario(env, [src]))
    assert [(i, type(e)) for i, e in err.value.failures] == [(1, SingularPoint)]


@pytest.mark.parametrize("width, height", [
    (math.nan, 2.5), (3.0, math.nan), (math.inf, 2.5), (3.0, math.inf), (0.0, 2.5), (3.0, -1.0)])
def test_duct_sides_must_be_finite_and_positive(width, height):
    with pytest.raises(ValueError, match="finite and > 0"):
        RectangularDuctReflecting(width, height)


def test_gauss_legendre_table():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert channel._GL_NODES == pytest.approx(nodes[4:], rel=1e-15)
    assert channel._GL_WEIGHTS == pytest.approx(weights[4:], rel=1e-15)


def test_erfcx_slope_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    z = np.concatenate([np.linspace(-0.46875, 30.0, 3051), [4.0, np.nextafter(4.0, 5.0)]])
    with mpmath.workdps(40):
        expect = np.array([float(2 / mpmath.sqrt(mpmath.pi)
                                 - 2 * mpmath.mpf(v) * mpmath.exp(mpmath.mpf(v) ** 2)
                                 * mpmath.erfc(v)) for v in z])
    assert channel._erfcx_slope(z) == pytest.approx(expect, rel=3e-14, abs=0.0)
