import math

import numpy as np
import pytest

import localization_oracle
from virodyne.channel import (
    Environment,
    HalfSpaceReflecting,
    RectangularDuctReflecting,
    SourceSpec,
    concentration_steady,
    unit_continuous_kernel,
    unit_instant_kernel,
)
from virodyne.core import rng_stream
from virodyne.errors import SingularPoint, Unidentifiable
from virodyne.localization import (
    SensorReading,
    SolverConfig,
    localize,
)

ENV = Environment(diffusivity=40.0)
CUBE = [(x, y, z) for x in (0.0, 10.0) for y in (0.0, 10.0) for z in (0.0, 10.0)]


def synthetic_readings(true_pos, true_rate, sensors=CUBE, sigma=1.0, env=ENV,
                       noise_stream=None, noise_scale=0.0):
    src = SourceSpec.continuous(true_rate, position=true_pos)
    readings = []
    for s in sensors:
        c = concentration_steady(src, env, s)
        if noise_stream is not None:
            c += noise_stream.normal(0.0, noise_scale)
        readings.append(SensorReading(position=s, time=0.0, concentration=c,
                                      sigma=sigma))
    return readings


class TestLocalize:
    def test_noiseless_recovery(self):
        true_pos = np.array([4.3, 6.1, 2.7])
        true_rate = 2e-3
        readings = synthetic_readings(true_pos, true_rate)
        est = localize(readings, ENV)
        assert np.linalg.norm(est.position.as_array() - true_pos) <= 1e-3
        assert est.rate == pytest.approx(true_rate, rel=1e-3)
        assert est.converged

    def test_residual_near_zero_noiseless(self):
        readings = synthetic_readings(np.array([5.0, 5.0, 5.0]), 1e-3)
        est = localize(readings, ENV)
        assert est.residual_norm < 1e-9

    def test_fixed_point_when_grid_lands_on_source(self):
        # A grid node coincides with the true source: zero residual there,
        # and refinement has nowhere better to go.
        true_pos = np.array([5.0, 5.0, 5.0])
        readings = synthetic_readings(true_pos, 1e-3)
        box = (tuple(true_pos - 5.0), tuple(true_pos + 5.0))
        est = localize(readings, ENV,
                       config=SolverConfig(grid_resolution=11, search_box=box))
        assert est.residual_norm <= 1e-12
        assert est.position.as_array() == pytest.approx(true_pos, abs=1e-9)

    @pytest.mark.parametrize("box", [
        ((math.nan, 0.0, 0.0), (10.0, 10.0, 10.0)),
        ((0.0, 0.0, 0.0), (10.0, math.inf, 10.0)),
        ((0.0, 0.0), (10.0, 10.0)),
        ((0.0, 0.0, 0.0),),
    ], ids=["nan_corner", "inf_corner", "two_vectors", "one_corner"])
    def test_search_box_must_be_two_finite_corners(self, box):
        # Unchecked, a NaN corner fits a wrong source with converged=True,
        # and an infinite one fails inside LAPACK.
        with pytest.raises(ValueError, match="search_box"):
            SolverConfig(search_box=box)

    def test_insufficient_readings(self):
        readings = synthetic_readings(np.array([5, 5, 5]), 1e-3)[:3]
        with pytest.raises(Unidentifiable):
            localize(readings, ENV)

    def test_coplanar_geometry_rejected(self):
        flat = [(x, y, 0.0) for x in (0, 5, 10) for y in (0, 5, 10)]
        readings = synthetic_readings(np.array([5, 5, 3]), 1e-3, sensors=flat)
        with pytest.raises(Unidentifiable):
            localize(readings, ENV)

    def test_all_zero_readings_rejected(self):
        readings = [SensorReading(position=p, time=0.0, concentration=0.0,
                                  sigma=1.0) for p in CUBE]
        with pytest.raises(Unidentifiable):
            localize(readings, ENV)

    @pytest.mark.parametrize("kind", ["instant", "continuous"])
    def test_model_zero_at_every_reading_rejected(self, kind):
        # Nothing emitted from t = 0 has reached a sensor by t = 0, so no
        # candidate position explains the nonzero readings.
        readings = [SensorReading(position=p, time=0.0, concentration=1e-3 * (i + 1),
                                  sigma=1.0) for i, p in enumerate(CUBE)]
        with pytest.raises(Unidentifiable, match="forward model is zero"):
            localize(readings, ENV, source_kind=kind)

    def test_still_air_duct_has_no_steady_model(self):
        duct = Environment(diffusivity=0.5,
                           boundary=RectangularDuctReflecting(3.0, 2.5))
        sensors = [(x, y, z) for x in (0.0, 10.0) for y in (0.5, 2.5) for z in (0.5, 2.0)]
        readings = [SensorReading(position=p, time=0.0, concentration=1e-6 * (i + 1),
                                  sigma=1e-7) for i, p in enumerate(sensors)]
        with pytest.raises(SingularPoint, match="steady state"):
            localize(readings, duct, source_kind="steady")

    def test_translation_equivariance(self):
        true_pos = np.array([3.0, 4.0, 6.0])
        shift = np.array([120.0, -45.0, 30.0])
        base = localize(synthetic_readings(true_pos, 1e-3), ENV)
        moved_sensors = [tuple(np.array(s) + shift) for s in CUBE]
        moved = localize(
            synthetic_readings(true_pos + shift, 1e-3, sensors=moved_sensors),
            ENV)
        assert moved.position.as_array() - shift == pytest.approx(
            base.position.as_array(), abs=1e-6)

    def test_refinement_never_worse_than_grid(self):
        stream = rng_stream(21, 0)
        readings = synthetic_readings(np.array([2.5, 7.5, 5.0]), 1e-3,
                                      noise_stream=stream, noise_scale=2e-7)
        coarse = localize(readings, ENV,
                          config=SolverConfig(grid_resolution=6,
                                              max_iterations=0))
        refined = localize(readings, ENV,
                           config=SolverConfig(grid_resolution=6))
        assert refined.residual_norm <= coarse.residual_norm + 1e-15
        assert not coarse.converged  # zero-iteration cap cannot converge

    def test_monotone_degradation_with_noise(self):
        true_pos = np.array([4.0, 5.0, 6.0])
        readings0 = synthetic_readings(true_pos, 1e-3)
        ymax = max(r.concentration for r in readings0)
        medians = []
        for frac in (0.01, 0.05, 0.20):
            errs = []
            for rep in range(30):
                stream = rng_stream(77, rep)
                noisy = synthetic_readings(true_pos, 1e-3,
                                           noise_stream=stream,
                                           noise_scale=frac * ymax,
                                           sigma=frac * ymax)
                est = localize(noisy, ENV,
                               config=SolverConfig(grid_resolution=10))
                errs.append(np.linalg.norm(est.position.as_array() - true_pos))
            medians.append(float(np.median(errs)))
        assert medians[0] <= medians[1] <= medians[2]

    def test_wind_aware_forward_model(self):
        env = Environment(diffusivity=10.0, wind=(1.0, 0.0, 0.0))
        true_pos = np.array([4.0, 6.0, 3.0])
        src = SourceSpec.continuous(5e-3, position=true_pos)
        readings = [SensorReading(position=s, time=0.0,
                                  concentration=concentration_steady(src, env, s),
                                  sigma=1.0) for s in CUBE]
        est = localize(readings, env)
        assert np.linalg.norm(est.position.as_array() - true_pos) <= 1e-3

    def test_flat_objective_rejected(self):
        # Every model value underflows to 0 at t > 0: the profiled objective
        # is flat, so no candidate explains any reading.
        env = Environment(diffusivity=1e-5)
        readings = [SensorReading(position=p, time=1e-3,
                                  concentration=float(i + 1), sigma=1.0)
                    for i, p in enumerate(CUBE)]
        with pytest.raises(Unidentifiable, match="forward model is zero"):
            localize(readings, env, source_kind="instant")


def _random_case(seed, kind, env):
    """12 random sensors in a 10 m cube reading a 1e-3 source with 2% noise;
    continuous and instant readings are taken at spread-out times."""
    stream = rng_stream(seed, 1)
    sensors = stream.uniform(0.0, 10.0, size=(12, 3))
    source = stream.uniform(2.0, 8.0, size=3)
    if kind == "steady":
        times = np.zeros(12)
        unit = unit_continuous_kernel(env, source, sensors, np.full(12, math.inf))
    elif kind == "continuous":
        times = stream.uniform(20.0, 60.0, size=12)
        unit = unit_continuous_kernel(env, source, sensors, times)
    else:
        times = stream.uniform(5.0, 20.0, size=12)
        unit = unit_instant_kernel(env, source, sensors, times)
    clean = 1e-3 * unit
    noisy = clean + 0.02 * clean * stream.standard_normal(12)
    return [SensorReading(position=tuple(p), time=t, concentration=c, sigma=s)
            for p, t, c, s in zip(sensors, times, noisy, 0.02 * clean)]


def _walled_case(env, truth, hi, seed):
    """8 sensors drawn uniformly in [0, hi] reading a steady source of rate 1
    at `truth` with 1% noise; the readings and the estimate."""
    rng = np.random.default_rng(seed)
    sensors = rng.uniform((0.0, 0.0, 0.0), hi, size=(8, 3))
    clean = unit_continuous_kernel(env, np.array(truth), sensors, np.full(8, math.inf))
    noisy = clean * (1.0 + 0.01 * rng.normal(size=8))
    readings = [SensorReading(position=tuple(p), time=0.0, concentration=c, sigma=s)
                for p, c, s in zip(sensors, noisy, 0.01 * clean)]
    return readings, localize(readings, env)


def _residual_norm(readings, env, est):
    """The weighted residual of the estimate, evaluated where it was reported."""
    sensors = np.array([r.position.as_array() for r in readings])
    g = unit_continuous_kernel(env, est.position.as_array(), sensors,
                               np.full(len(readings), math.inf))
    y = np.array([r.concentration for r in readings])
    sigma = np.array([r.sigma for r in readings])
    return math.sqrt(float((((y - est.rate * g) / sigma) ** 2).sum()))


class TestMirroredOptima:
    """The image model is symmetric about each wall, so the likelihood has an
    optimum mirrored outside the region; localize returns the one inside,
    with the residual it reports holding there."""

    def test_half_space_estimate_lies_above_the_ground(self):
        # Seeds 3 and 9 once returned z = -0.462 and z = -0.391, converged.
        env = Environment(diffusivity=0.5, wind=(0.3, 0.0, 0.0),
                          boundary=HalfSpaceReflecting())
        zs = {}
        for seed in range(10):
            readings, est = _walled_case(env, (5.0, 4.0, 0.4), (12.0, 8.0, 3.0), seed)
            assert est.converged
            assert est.position.z >= 0.0
            assert _residual_norm(readings, env, est) == pytest.approx(
                est.residual_norm, rel=1e-9)
            zs[seed] = est.position.z
        assert zs[3] == pytest.approx(0.462, abs=1e-3)
        assert zs[9] == pytest.approx(0.391, abs=1e-3)

    def test_duct_estimate_lies_inside_the_cross_section(self):
        # Four of these seeds once returned y < 0 and two z > 2.5, up to
        # z = 5.99, past the mirror of the far wall.
        duct = RectangularDuctReflecting(3.0, 2.5)
        env = Environment(diffusivity=0.5, wind=(0.3, 0.0, 0.0), boundary=duct)
        for seed in range(10):
            readings, est = _walled_case(env, (5.0, 0.4, 1.2), (12.0, 3.0, 2.5), seed)
            assert 0.0 <= est.position.y <= duct.width
            assert 0.0 <= est.position.z <= duct.height
            assert _residual_norm(readings, env, est) == pytest.approx(
                est.residual_norm, rel=1e-9)


class TestAgainstSimplex:
    """Levenberg-Marquardt against the Nelder-Mead refinement it replaced
    (tests/localization_oracle.py), from the same grid optimum."""

    @pytest.mark.parametrize("kind", ["steady", "continuous", "instant"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fit_matches_simplex(self, seed, kind):
        env = Environment(diffusivity=1.0)
        self._check(_random_case(seed, kind, env), env, kind)

    def test_windy_steady_matches_simplex(self):
        env = Environment(diffusivity=1.0, wind=(0.3, 0.1, 0.0))
        self._check(_random_case(4, "steady", env), env, "steady")

    @staticmethod
    def _check(readings, env, kind):
        est = localize(readings, env, source_kind=kind)
        pos, rate, ssr = localization_oracle.localize_by_simplex(
            readings, env, source_kind=kind)
        assert est.converged
        assert est.residual_norm**2 <= ssr * (1.0 + 1e-9)
        assert np.linalg.norm(est.position.as_array() - pos) <= 1e-6
        assert est.rate == pytest.approx(rate, rel=1e-6)


class TestDiagnostics:
    def test_crlb_matches_refit_spread(self):
        # test_criterion_07's source in the cube, sigma 1% of the largest
        # clean reading: the RMS position error of 200 noisy re-fits agrees
        # with sqrt(trace) of the position block of the inverse Fisher
        # information.
        true_pos = np.array([4.3, 6.1, 2.7])
        clean = synthetic_readings(true_pos, 2e-3)
        sigma = 0.01 * max(r.concentration for r in clean)
        errs = []
        for rep in range(200):
            stream = rng_stream(42, rep)
            noisy = [SensorReading(position=r.position, time=0.0,
                                   concentration=r.concentration
                                   + stream.normal(0.0, sigma), sigma=sigma)
                     for r in clean]
            est = localize(noisy, ENV)
            errs.append(np.sum((est.position.as_array() - true_pos) ** 2))
        rms = math.sqrt(float(np.mean(errs)))
        at_truth = [SensorReading(position=r.position, time=0.0,
                                  concentration=r.concentration, sigma=sigma)
                    for r in clean]
        bound = localize(at_truth, ENV).crlb_position_m
        assert bound is not None
        assert rms == pytest.approx(bound, rel=0.2)

    def test_crlb_is_none_when_fisher_is_singular(self):
        # Negated readings are best fitted by rate 0, where the Jacobian's
        # position columns vanish and the Fisher information is singular.
        negated = [SensorReading(position=r.position, time=r.time,
                                 concentration=-r.concentration, sigma=r.sigma)
                   for r in synthetic_readings(np.array([5, 5, 5]), 1e-3)]
        est = localize(negated, ENV)
        assert est.rate == 0.0
        assert est.crlb_position_m is None
