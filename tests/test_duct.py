"""The duct field, images for young ages and cross-section modes for old
ones, against the explicit image sum of tests/duct_oracle.py."""

import math
from pathlib import Path

import numpy as np
import pytest

import duct_oracle
from test_golden_cli import GOLDEN, _assert_csv_matches
from virodyne import channel
from virodyne.cli import main
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


# Pieces that emit for 10 s from START and are seen 1, 30, 600 and 3600 s
# after they stopped, along the duct with a slight drift across it, across
# it at a slant, and straight across it; each stays inside while it emits.
START = np.array([0.0, 1.0, 1.2])
CROSSING = [(0.3, 1e-9, 0.0), (0.2, 0.05, -0.02), (0.0, 0.1, 0.0)]


@pytest.mark.parametrize("wind", [0.0, 0.4])
@pytest.mark.parametrize("diffusivity", [0.05, 0.5, 5.0])
def test_piece_moving_across_the_duct_is_the_image_sum(diffusivity, wind):
    # tau0 = 32 (3 m / pi)^2 / D: 584, 58 and 5.8 s. Order 10 was 56% off
    # at 3600 s with D = 0.5 and 94% off with D = 5.
    env = Environment(diffusivity=diffusivity, wind=Velocity(wind, 0.0, 0.0), boundary=DUCT)
    obs = OBS[:3]
    for vel in CROSSING:
        for after in [1.0, 30.0, 600.0, 3600.0]:
            tau = after + 10.0
            src = START + np.array(vel) * tau  # where the piece would be at the observation
            got = unit_continuous_kernel(env, src, obs, np.full(3, tau), velocity=vel,
                                         taus_end=np.full(3, after))
            want = np.array([duct_oracle.continuous(W, H, diffusivity, wind, src, r, tau,
                                                    tau_end=after, velocity=vel) for r in obs])
            # Below 1e-100 the exp of arguments near -290 carries about
            # 1e-12 by itself.
            rel = np.where(want >= 1e-100, 1e-12, 1e-11)
            assert (np.abs(got - want) <= rel * want).all(), (vel, after)


def test_piece_keeping_pace_with_the_wind_across_the_duct():
    # Seen at 600 s and 3600 s, a tenth and a fortieth of tau0 = 58 s: the
    # order-10 sum read 0.66% and 20.6% low.
    env = Environment(diffusivity=0.5, wind=Velocity(0.3, 0.0, 0.0), boundary=DUCT)
    src, obs, vel = (0.0, 1.1, 0.9), (5.0, 2.8, 0.2), (0.3, 1e-9, 0.0)
    for t in [600.0, 3600.0]:
        got = unit_continuous_kernel(env, src, obs, [t], velocity=vel)[0]
        want = duct_oracle.continuous(W, H, 0.5, 0.3, src, obs, t, velocity=vel)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t


def _jobs_seen(monkeypatch) -> list[list[tuple]]:
    """The (table, rows) jobs of every _mode_kernel call, recorded."""
    calls = []
    mode_kernel = channel._mode_kernel
    monkeypatch.setattr(channel, "_mode_kernel",
                        lambda jobs, *a: calls.append(jobs) or mode_kernel(jobs, *a))
    return calls


def test_square_duct_crossing_takes_mode_zero_alone(monkeypatch):
    # In a 2 x 2 m duct modes (1, 0) and (0, 1) tie at exactly exp(-32) of
    # mode (0, 0) at tau0: rows moving across take (0, 0) alone all the same.
    square = RectangularDuctReflecting(2.0, 2.0)
    env = Environment(diffusivity=0.5, wind=Velocity(0.4, 0.0, 0.0), boundary=square)
    calls = _jobs_seen(monkeypatch)
    vel = (0.1, 0.001, -0.0005)
    src, obs = np.array([0.0, 1.3, 0.6]), np.array([(4.0, 0.2, 1.9), (-1.0, 1.0, 1.0)])
    for t in [60.0, 600.0]:  # tau0 = 32 (2 / pi)^2 / 0.5 = 26 s
        got = unit_continuous_kernel(env, src, obs, np.full(2, t), velocity=vel)
        want = [duct_oracle.continuous(2.0, 2.0, 0.5, 0.4, src, r, t, velocity=vel) for r in obs]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t
    tables = [table for jobs in calls for table, _ in jobs]
    assert len(tables) == 2
    for ky, kz, m, n, lam, weight in tables:
        assert (m.tolist(), n.tolist(), lam.tolist()) == ([0], [0], [0.0])
        assert weight.tolist() == [1.0 / 4.0]


def test_stopped_window_past_its_peak_keeps_its_digits():
    # A 10 s piece crossing the duct at 0.1 m/s, seen 30 s after it stopped:
    # every image is past its peak, where K(tau) - K(end) read 1.05e-7
    # relative off the quadrature of the instant kernel.
    quad = pytest.importorskip("scipy.integrate").quad
    env = Environment(diffusivity=0.05, wind=Velocity(0.4, 0.0, 0.0), boundary=DUCT)
    vel, obs, t = np.array([0.0, 0.1, 0.0]), np.array([0.5, 0.3, 2.4]), 40.0

    def instant(s):
        return unit_instant_kernel(env, START + vel * s, obs, [t - s])[0]

    want = quad(instant, 0.0, 10.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    got = unit_continuous_kernel(env, START + vel * t, obs, [t], velocity=vel,
                                 taus_end=[t - 10.0])[0]
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


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


def _far_axis():
    """Axial offsets just inside and just outside xi* and each block edge
    above it, alternately downstream and upstream."""
    edge = channel._far_edge(DUCT)
    return [s * f * edge * 2.0 ** j for j in range(4)
            for s, f in ((1.0, 0.99), (-1.0, 1.01), (-1.0, 0.99), (1.0, 1.01))]


def _far_obs():
    xs = np.array(_far_axis())
    ys = np.resize([0.2, 1.4, 2.9, 0.0], xs.size)
    zs = np.resize([2.4, 0.9, 0.1, 2.5], xs.size)
    return np.column_stack([SRC[0] + xs, ys, zs])


@pytest.mark.parametrize("wind", [0.0, 1e-6, 0.5], ids=["still", "near_still", "windy"])
def test_far_rows_are_the_image_sum(wind):
    # Rows on both sides of xi* and of each block edge, seen from tau*/2 to
    # the steady state and over a window that stopped at half the age.
    env = Environment(diffusivity=0.5, wind=Velocity(wind, 0.0, 0.0), boundary=DUCT)
    obs = _far_obs()
    n = len(obs)
    taken = 0
    for t in _ages(0.5, wind):
        for end in [0.0] + [t / 2] * math.isfinite(t):
            got = unit_continuous_kernel(env, SRC, obs, np.full(n, t), taus_end=np.full(n, end))
            want = [duct_oracle.continuous(W, H, 0.5, wind, SRC, r, t, tau_end=end) for r in obs]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (t, end)
            far, _ = channel._far_rows(DUCT, 0.5, np.broadcast_to(SRC, (n, 3)), obs,
                                       np.full(n, wind), np.full(n, end), np.full(n, t),
                                       np.ones(n, dtype=bool))
            taken += far.size
    assert taken > 3 * n


def test_far_rows_never_reach_the_images(monkeypatch):
    env = Environment(diffusivity=0.5, wind=Velocity(0.5, 0.0, 0.0), boundary=DUCT)
    seen = []
    image_kernel = channel._image_kernel
    monkeypatch.setattr(channel, "_image_kernel",
                        lambda env, flips, offsets, src, obs, *a:
                        seen.append(obs.copy()) or image_kernel(env, flips, offsets, src, obs, *a))
    # 1 m from the source, then one row in each block from xi* on.
    xs = [1.0, 3.0, 6.0, 12.0, 24.0]
    obs = np.column_stack([xs, [2.8, 0.4, 1.5, 2.0, 0.1], [0.2, 2.2, 1.2, 0.5, 2.4]])
    for t in [60.0, 3600.0, math.inf]:
        got = unit_continuous_kernel(env, SRC, obs, np.full(len(xs), t))
        want = [duct_oracle.continuous(W, H, 0.5, 0.5, SRC, r, t) for r in obs]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t
    assert len(seen) == 3
    assert all(np.array_equal(rows, obs[:1]) for rows in seen)


@pytest.mark.parametrize("wind", [0.0, 0.5])
def test_young_far_rows_keep_the_split(monkeypatch, wind):
    # At tau*/2 = 1 s the row 15 m away reads under 1e-40: the bound on the
    # modes its table drops exceeds e^-32 of what it keeps, so it takes the
    # images as before, though its block has a table.
    env = Environment(diffusivity=0.5, wind=Velocity(wind, 0.0, 0.0), boundary=DUCT)
    obs, t = np.array([[15.0, 1.0, 1.0]]), 0.16 * min(W, H) ** 2 / 0.5 / 2
    block = math.floor(math.log2(15.0 / channel._far_edge(DUCT)))
    assert channel._far_modes(DUCT, wind / (2.0 * 0.5), block) is not None
    far, _ = channel._far_rows(DUCT, 0.5, SRC[None, :], obs, np.full(1, wind), np.zeros(1),
                               np.full(1, t), np.ones(1, dtype=bool))
    assert far.size == 0
    seen = []
    image_kernel = channel._image_kernel
    monkeypatch.setattr(channel, "_image_kernel",
                        lambda *a: seen.append(a[4].copy()) or image_kernel(*a))
    got = unit_continuous_kernel(env, SRC, obs, [t])[0]
    assert [rows.tolist() for rows in seen] == [obs.tolist()]
    want = duct_oracle.continuous(W, H, 0.5, wind, SRC, obs[0], t)
    assert 0.0 < want < 1e-40
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("xi", [-3.0, 0.0, 2.0, 15.0])
@pytest.mark.parametrize("u", [0.0, 0.5])
def test_axial_span_from_age_zero(xi, u):
    # lo = 0 is the head's exact 0, with nothing evaluated at it: the same
    # span as from 1e-300, where every term has underflowed.
    lam = channel._duct_modes(DUCT)[4]
    hi = np.array([[0.5], [2.0], [20.0]] + [[math.inf]] * (u > 0))
    rows = hi.shape[0]
    with np.errstate(all="raise"):
        got = channel._axial_span(np.full((rows, 1), xi), np.full((rows, 1), u), lam,
                                  np.zeros((rows, 1)), hi, 0.5)
    want = channel._axial_span(np.full((rows, 1), xi), np.full((rows, 1), u), lam,
                               np.full((rows, 1), 1e-300), hi, 0.5)
    assert np.isfinite(got).all()
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_young_rows_past_the_last_kept_mode_keep_their_digits():
    # Blocks 4 and 5 keep mode (0, 0) alone. Block 5 drops every other mode
    # past e^-64, where a tail summed only that far read 0: its row, near
    # 1e-268, then took mode (0, 0) alone and read 1e-3 off.
    env = Environment(diffusivity=0.5, wind=Velocity(1e-6, 0.0, 0.0), boundary=DUCT)
    obs, taus = np.array([(78.0, 1.5, 1.2), (-70.0, 2.0, 0.3)]), np.array([5.0, 4.0])
    for block in (4, 5):
        table, tail = channel._far_modes(DUCT, 2.0 ** -19, block)
        assert table[4].tolist() == [0.0] and tail > 0.0
    got = unit_continuous_kernel(env, SRC, obs, taus)
    want = [duct_oracle.continuous(W, H, 0.5, 1e-6, SRC, r, t) for r, t in zip(obs, taus)]
    assert 0.0 < max(want) < 1e-250
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("wind", [0.0, 0.5])
def test_rows_past_every_far_table_keep_the_split(wind):
    # From about 1e18 m in still air and 1e34 m in this wind, 2 _TAIL / xi_lo
    # vanishes against a lattice cell and no table can bound what it drops:
    # those rows keep the split and read its values, with no warning and no
    # division by zero.
    env = Environment(diffusivity=0.5, wind=Velocity(wind, 0.0, 0.0), boundary=DUCT)
    xs = np.array([1e18, -1e18, 1e34, -1e34, 1e100])
    obs = np.column_stack([xs, np.full(5, 2.0), np.full(5, 0.5)])
    for x in xs[np.abs(xs) >= (1e34 if wind else 1e18)]:
        block = int(np.frexp(abs(x) / channel._far_edge(DUCT))[1]) - 1
        assert channel._far_modes(DUCT, wind / (2.0 * 0.5), block) is None
    for t in [60.0, 3600.0] + [math.inf] * (wind > 0):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = unit_continuous_kernel(env, SRC, obs, np.full(5, t))
        # Only the steady plume reaches that far: rate / (u W H) downstream.
        want = [1.0 / (wind * W * H) if math.isinf(t) and x > 0 else 0.0 for x in xs]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t


@pytest.mark.parametrize("q", [0.0, 0.25, 1.0, 4.0])
def test_far_tables_keep_at_least_their_disc(q):
    # _far_modes refuses a block before enumerating its lattice when
    # W H (s^2 + 2 q s) / 4 pi, s = _TAIL / xi_lo, passes the split's work.
    # That count is a lower bound on the modes the table keeps, so the
    # refusal changes no table: a block is refused just when it keeps more.
    work = len(channel._image_stack(DUCT, channel._split_scale(DUCT))[0]) + \
        channel._duct_modes(DUCT)[4].size
    refused = 0
    for block in range(-3, 6):
        xi_lo = math.ldexp(channel._far_edge(DUCT), block)
        s = channel._TAIL / xi_lo
        top = math.sqrt(s * s + 2.0 * q * s)
        ky, kz = (math.pi / L * np.arange(math.floor(L * top / math.pi) + 3.0) for L in (W, H))
        lam = channel._mode_lattice(DUCT, ky, kz)[2]
        decay = xi_lo * lam / np.where(lam > 0.0, np.hypot(q, np.sqrt(lam)) + q, 1.0)
        kept = np.count_nonzero(decay <= channel._TAIL)
        assert kept >= W * H * (s * s + 2.0 * q * s) / (4.0 * math.pi), block
        found = channel._far_modes(DUCT, q, block)
        assert (found is None) == (kept > work), block
        assert found is None or found[0][4].size == kept, block
        refused += found is None
    assert 0 < refused < 9


def test_pieces_at_many_speeds_along_the_duct_share_tables():
    # The pieces of a path walked along the duct each drift at their own
    # speed. With kappa_00 rounded up to a power of 2, these 24 drifts,
    # 0.21 to 0.77 m/s, share the three tables of their octaves; a table
    # per exact drift would cost each piece its own table and its own
    # _mode_kernel call.
    env = Environment(diffusivity=0.5, wind=Velocity(0.5, 0.0, 0.0), boundary=DUCT)
    n = 24
    vel = np.column_stack([np.linspace(-0.27, 0.29, n), np.zeros(n), np.zeros(n)])
    obs = np.column_stack([np.full(n, 12.0), np.resize([0.3, 1.7, 2.6], n),
                           np.resize([2.2, 0.4, 1.3], n)])
    channel._far_modes.cache_clear()
    got = unit_continuous_kernel(env, SRC, obs, np.full(n, 60.0), velocity=vel)
    assert channel._far_modes.cache_info().misses == 3
    far, _ = channel._far_rows(DUCT, 0.5, np.broadcast_to(SRC, (n, 3)), obs, 0.5 - vel[:, 0],
                               np.zeros(n), np.full(n, 60.0), np.ones(n, dtype=bool))
    assert far.size == n
    want = [duct_oracle.continuous(W, H, 0.5, 0.5, SRC, r, 60.0, velocity=v)
            for r, v in zip(obs, vel)]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("u", [0.0, 0.5, -0.5, 3.0])
def test_head_bound_holds_mode_zero(u):
    # Mode (0, 0) over [lo, hi], downstream and upstream, from a millisecond
    # to 10^4 s (and to the steady state in a drift), never exceeds the
    # closed-form bound.
    rng = np.random.default_rng(31)
    n = 400
    steady = 20 * (u != 0.0)
    xi = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 10.0, n)
    finite = 10.0 ** rng.uniform(-3.0, 4.0, n - steady)
    hi = np.concatenate([finite, np.full(steady, math.inf)])
    lo = np.concatenate([finite * rng.choice([0.0, 0.3, 0.9], n - steady),
                         np.full(steady, 100.0)])
    drift = np.full(n, u)
    mean = channel._axial_span(xi[:, None], drift[:, None], np.zeros(1), lo[:, None],
                               hi[:, None], 0.5)[:, 0] / (W * H)
    bound = channel._head_bound(DUCT, 0.5, xi, drift, hi)
    assert (mean <= bound).all()
    assert np.count_nonzero(mean > 1e-6) > n // 8


def _no_head_bound(b, diffusivity, xi, u, hi):
    return np.full(xi.shape, np.inf)


@pytest.mark.parametrize("wind", [0.0, 0.5, -0.5])
def test_head_bound_turns_away_only_rows_that_fall_back(monkeypatch, wind):
    # The far rows and their values, with the bound and with it switched
    # off, over windows from age 0 and stopped at half the age.
    obs = _far_obs()
    n = len(obs)
    src = np.broadcast_to(SRC, (n, 3))
    ages = [0.1, 1.0, 2.0, 10.0, 60.0, 600.0, 3600.0]

    def far_rows():
        return [channel._far_rows(DUCT, 0.5, src, obs, np.full(n, wind), np.full(n, lo),
                                  np.full(n, t), np.ones(n, dtype=bool))
                for t in ages for lo in (0.0, t / 2)]

    got = far_rows()
    monkeypatch.setattr(channel, "_head_bound", _no_head_bound)
    want = far_rows()
    for (rows, values), (rows_want, values_want) in zip(got, want):
        assert np.array_equal(rows, rows_want)
        assert values.tobytes() == values_want.tobytes()
    assert sum(rows.size for rows, _ in got) > n


def _young_duct_cfg(path: Path) -> str:
    """The 3 x 2.5 m still-air duct that CI sees at 1 s from x = 5 to 20 m."""
    path.write_text("\n".join([
        "[environment]", "diffusivity_m2s = 0.5", "boundary = duct", "duct_width_m = 3",
        "duct_height_m = 2.5", "image_order = 10", "[source]", "kind = continuous",
        "position_m = 0 1.5 1.2", "rate_kgs = 1e-6", "[grid]", "x_m = 5 20 4",
        "y_m = 0.2 2.8 3", "z_m = 0.2 2.3 3", "times_s = 1", ""]))
    return str(path)


def test_rows_sharing_axial_keys_keep_their_bits(monkeypatch):
    # An 8 x 16 x 16 grid at 60 s in a 0.5 m/s wind: the 256 rows of each
    # cross-section plane share one axial key, and a table serves more
    # rows than _BLOCK_PAIRS // K, with more than 2^15 terms: about where
    # numpy starts to lay a product of fancy-indexed columns out in Fortran
    # order, whose row sums are sequential, not pairwise. Each row keeps
    # the bits it has alone, and the image sum's value to 1e-12.
    env = Environment(diffusivity=0.5, wind=Velocity(0.5, 0.0, 0.0), boundary=DUCT)
    xs, ys, zs = np.meshgrid(np.linspace(1.0, 20.0, 8), np.linspace(0.1, 2.9, 16),
                             np.linspace(0.1, 2.4, 16), indexing="ij")
    obs = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    n = len(obs)
    calls = _jobs_seen(monkeypatch)
    batch = unit_continuous_kernel(env, SRC, obs, np.full(n, 60.0))
    assert any(rows.size > channel._BLOCK_PAIRS // table[4].size
               and rows.size * table[4].size > 2 ** 15
               for jobs in calls for table, rows in jobs)
    for i in range(n):
        alone = unit_continuous_kernel(env, SRC, obs[i], [60.0])
        assert alone.tobytes() == batch[i:i + 1].tobytes(), i
    want = [duct_oracle.continuous(W, H, 0.5, 0.5, SRC, r, 60.0) for r in obs]
    assert batch == pytest.approx(want, rel=1e-12, abs=0.0)


def _windy_duct_cfg(path: Path) -> str:
    """The benchmark duct's physics: 3 x 2.5 m, D = 0.5, a 0.5 m/s wind, a
    12 x 5 x 5 grid from x = 1 to 20 m at 60 s."""
    path.write_text("\n".join([
        "[environment]", "diffusivity_m2s = 0.5", "wind_mps = 0.5 0 0", "boundary = duct",
        "duct_width_m = 3", "duct_height_m = 2.5", "image_order = 10", "[source]",
        "kind = continuous", "position_m = 0 1.1 0.9", "rate_kgs = 1e-6", "[grid]",
        "x_m = 1 20 12", "y_m = 0.2 2.8 5", "z_m = 0.2 2.3 5", "times_s = 60", ""]))
    return str(path)


def test_windy_duct_field_keeps_its_bytes(tmp_path, monkeypatch):
    # The benchmark duct's physics, whose field reads far tables in several
    # |xi| blocks and the split's modes in one run, matches the field
    # recorded before each mode's axial integral was taken once per axial
    # key (to rel 1e-12, as every physical-layer golden).
    cfg = _windy_duct_cfg(tmp_path / "windy.cfg")
    got = tmp_path / "windy.csv"
    calls = _jobs_seen(monkeypatch)
    assert main(["field", "--config", cfg, "--out", str(got)]) == 0
    tables = [table for jobs in calls for table, _ in jobs]
    assert len(tables) > 3 and any(table is channel._duct_modes(DUCT) for table in tables)
    _assert_csv_matches(str(got), str(Path(GOLDEN) / "field_windy_duct.csv"))


@pytest.mark.parametrize("wind", [0.0, 0.5])
def test_young_far_rows_never_reach_the_axial_span(monkeypatch, wind):
    # At 1 s every row of that grid lies past xi* and is far too faint for
    # the far-row check: the closed-form bound turns each away before its
    # mean is computed.
    def no_span(*args):
        raise AssertionError("a young far row reached _axial_span")

    xs, ys, zs = np.meshgrid([5.0, 10.0, 15.0, 20.0], [0.2, 1.5, 2.8], [0.2, 1.25, 2.3],
                             indexing="ij")
    obs = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    n = len(obs)
    monkeypatch.setattr(channel, "_axial_span", no_span)
    far, values = channel._far_rows(DUCT, 0.5, np.broadcast_to([0.0, 1.5, 1.2], (n, 3)), obs,
                                    np.full(n, wind), np.zeros(n), np.ones(n),
                                    np.ones(n, dtype=bool))
    assert far.size == 0 and values.size == 0


def test_young_duct_field_keeps_its_bytes(tmp_path, monkeypatch):
    # That duct's field is byte for byte the one the far check gives with
    # the bound switched off, and matches the one recorded before the bound
    # (to rel 1e-12, as every physical-layer golden: numpy's SIMD exp may
    # differ by an ulp between CPUs).
    cfg = _young_duct_cfg(tmp_path / "young.cfg")
    got, want = tmp_path / "young.csv", tmp_path / "unbounded.csv"
    assert main(["field", "--config", cfg, "--out", str(got)]) == 0
    monkeypatch.setattr(channel, "_head_bound", _no_head_bound)
    assert main(["field", "--config", cfg, "--out", str(want)]) == 0
    assert got.read_bytes() == want.read_bytes()
    _assert_csv_matches(str(got), str(Path(GOLDEN) / "field_young_duct.csv"))
