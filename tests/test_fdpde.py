"""Cross-validation of the closed-form/quadrature solvers against the
independent explicit finite-difference route."""

import time

import numpy as np
import pytest

from virodyne import fdpde
from virodyne.channel import (
    Environment,
    FieldQuery,
    HalfSpaceReflecting,
    Scenario,
    SourceSpec,
    concentration_continuous,
    concentration_instant,
    evaluate_field,
)
from virodyne.core import Velocity
from virodyne.errors import OutOfDomain, UnstableTimeStep, VirodyneError
from virodyne.fdpde import FdGrid, FdSolution, solve_advection_diffusion
from virodyne.mobility import Trajectory


def _probe_points(rng, sol: FdSolution, n, exclude_fn, margin=12.0, floor=0.01):
    lo = np.array(sol.grid.lo) + margin
    hi = np.array(sol.grid.hi) - margin
    fd_max = sol.field.max()
    probes = []
    while len(probes) < n:
        p = rng.uniform(lo, hi)
        if exclude_fn(p):
            continue
        if sol.sample(p[None, :])[0] < floor * fd_max:
            continue
        probes.append(p)
    return np.array(probes)


def _refuse(*args, **kwargs):
    raise AssertionError("allocated or stepped before refusing dt")


class TestFdSolver:
    @pytest.mark.parametrize("lo, hi", [
        ((0, 0, 0), (np.inf, 1, 1)),
        ((-np.inf, 0, 0), (1, 1, 1)),
        ((0, 0, 0), (1, np.nan, 1)),
        ((0, 0, 0), (1e-120,) * 3),  # the cell volume, 1.6e-362, underflows to 0
        ((-1e308,) * 3, (1e308,) * 3),  # hi - lo overflows
        ((0, 0, 0), (1e200,) * 3),  # h^2 overflows
        ((0, 0, 0), (5e-160, 1, 1)),  # h^2 = 1.6e-320 is subnormal
        ((0, 0, 0), (1e-310, 1, 1)),  # a subnormal extent
    ])
    def test_grid_bounds_must_be_finite(self, lo, hi):
        # Unchecked, an infinite bound gives an all-zero field, a cell volume
        # of 0 divides by 0 in the deposit, and an extent or h^2 past the
        # largest float overflows in the solver's bounds.
        with pytest.raises(ValueError):
            FdGrid(lo=lo, hi=hi, shape=(4, 4, 4))

    @pytest.mark.parametrize("kind, amount, diffusivity", [
        ("continuous", 1e308, 0.1), ("instant", 1e308, 0.1),
        ("instant", 1e305, 0.1), ("instant", 1e302, 10.0)],
        ids=["continuous", "instant", "instant-laplacian", "instant-diffusivity"])
    def test_a_deposit_past_the_largest_float_is_refused_before_any_allocation(
            self, kind, amount, diffusivity, monkeypatch):
        # 1e308 kg/s for 1 s, or a 1e308 kg puff, over a cell of 1e-3 m^3 is
        # a density past the largest float; unchecked, the field filled with
        # inf and NaN. A 1e305 kg puff is a finite density, 1e308, but the
        # Laplacian divides it by h^2 = 0.01 and overflowed; at D = 10 a
        # 1e302 kg puff overflowed in D times the Laplacian.
        for name in ("zeros", "empty"):
            monkeypatch.setattr(np, name, _refuse)
        grid = FdGrid((0, 0, 0), (1, 1, 1), (10, 10, 10))
        src = (SourceSpec.continuous(amount, position=(0.5, 0.5, 0.5)) if kind == "continuous"
               else SourceSpec.instant((0.55, 0.55, 0.55), amount))
        with pytest.raises(VirodyneError, match="past the largest float"):
            solve_advection_diffusion(grid, diffusivity, _refuse, [src], t_end=1.0)

    def test_a_deposit_under_the_stencil_bound_runs_quietly(self):
        # 1e301 kg in one 1e-3 m^3 cell at D = 10 bounds the stencil's
        # intermediates by 4 x 1e304 x (D sum 1/h^2 = 3000) = 1.2e308, under
        # the largest float: the solve runs with no warning (RuntimeWarnings
        # are errors here) and keeps a finite field.
        grid = FdGrid((0, 0, 0), (1, 1, 1), (10, 10, 10))
        src = SourceSpec.instant((0.55, 0.55, 0.55), 1e301)
        sol = solve_advection_diffusion(grid, 10.0, (0, 0, 0), [src], t_end=0.01)
        assert np.isfinite(sol.field).all() and sol.field.max() > 1e300

    def test_a_rate_that_opens_after_the_run_is_not_counted(self):
        grid = FdGrid((0, 0, 0), (1, 1, 1), (10, 10, 10))
        src = SourceSpec.continuous([(0.0, 1e-6), (2.0, 1e308)], position=(0.5, 0.5, 0.5))
        sol = solve_advection_diffusion(grid, 0.1, (0, 0, 0), [src], t_end=1.0)
        assert np.isfinite(sol.field).all()
        assert sol.field.sum() * grid.cell_volume() == pytest.approx(1e-6, rel=0.5)

    def test_stability_guard(self):
        grid = FdGrid((-5, -5, -5), (5, 5, 5), (11, 11, 11))
        with pytest.raises(ValueError):
            solve_advection_diffusion(grid, 10.0, (0, 0, 0),
                                      [SourceSpec.instant((0, 0, 0), 1.0)],
                                      t_end=1.0, dt=1.0)

    def test_flow_speeding_up_after_start_breaks_cfl(self):
        # dt = 0.1 s passes the advective bound h/|v| = 0.91 s at t = 0, but
        # the wind 1 + t m/s exceeds h/dt = 9.09 m/s from t = 8.09 s on.
        grid = FdGrid((-5, -5, -5), (5, 5, 5), (11, 11, 11))

        def ramp(points, t):
            v = np.zeros_like(points)
            v[:, 0] = 1.0 + t
            return v

        src = [SourceSpec.instant((0, 0, 0), 1.0)]
        ok = solve_advection_diffusion(grid, 0.01, ramp, src, t_end=8.0, dt=0.1)
        assert ok.steps == 80
        with pytest.raises(UnstableTimeStep, match=r"t=8\.15") as err:
            solve_advection_diffusion(grid, 0.01, ramp, src, t_end=10.0, dt=0.1)
        assert isinstance(err.value, VirodyneError)
        assert isinstance(err.value, ValueError)

    def test_uniform_flow_speeding_up_after_start_breaks_cfl(self):
        # The same ramp, the same in every cell: the solver takes it as three
        # scalars and must still check it on every step.
        grid = FdGrid((-5, -5, -5), (5, 5, 5), (11, 11, 11))

        def ramp(points, t):
            return np.broadcast_to(np.array([1.0 + t, 0.0, 0.0]), points.shape)

        src = [SourceSpec.instant((0, 0, 0), 1.0)]
        ok = solve_advection_diffusion(grid, 0.01, ramp, src, t_end=8.0, dt=0.1)
        assert ok.steps == 80
        with pytest.raises(UnstableTimeStep, match=r"t=8\.15"):
            solve_advection_diffusion(grid, 0.01, ramp, src, t_end=10.0, dt=0.1)

    def test_effective_dt_is_checked_against_the_bound(self):
        # The diffusive bound is 0.680 s. A requested dt of 0.67 s passes it,
        # but t_end / round(t_end / dt) makes one step of 1.0 s, which
        # overshoots (the field minimum was -0.16).
        grid = FdGrid((-5, -5, -5), (5, 5, 5), (7, 7, 7))
        src = [SourceSpec.instant((0.3, 0, 0), 1.0)]
        with pytest.raises(UnstableTimeStep, match=r"dt=0\.67 .*\b1 step\(s\) of 1 s"):
            solve_advection_diffusion(grid, 0.5, (0, 0, 0), src, t_end=1.0, dt=0.67)
        sol = solve_advection_diffusion(grid, 0.5, (0, 0, 0), src, t_end=1.0, dt=0.5)
        assert sol.steps == 2 and sol.field.min() >= 0.0

    @pytest.mark.parametrize("case", [
        "negative dt", "zero dt", "nan dt", "inf dt",
        "nan wind", "inf wind", "nan callable at t=0", "nan callable later",
        "inf callable later", "nan uniform callable later",
        "nan diffusivity", "inf diffusivity", "nan t_end", "inf t_end",
        "subnormal dt", "tiny dt", "4-component wind", "2-component wind",
    ])
    def test_hostile_numerics_raise(self, case):
        grid = FdGrid((-5, -5, -5), (5, 5, 5), (7, 7, 7))
        src = [SourceSpec.instant((0.3, 0, 0), 1.0)]
        nan, inf = float("nan"), float("inf")

        def turning(bad, uniform=False):
            def velocity(points, t):
                v = np.array([0.1, 0.0, 0.0]) if t < 0.5 else np.array([bad, 0.0, 0.0])
                if uniform:
                    return np.broadcast_to(v, points.shape)
                return np.tile(v, (len(points), 1))
            return velocity

        kw = {"diffusivity": 0.5, "velocity": (0.1, 0, 0), "t_end": 1.0, "dt": 0.1}
        kw.update({
            "negative dt": {"dt": -0.1}, "zero dt": {"dt": 0.0}, "nan dt": {"dt": nan},
            "inf dt": {"dt": inf}, "nan wind": {"velocity": (nan, 0, 0)},
            "inf wind": {"velocity": (inf, 0, 0), "dt": None},
            "nan callable at t=0": {"velocity": lambda p, t: np.full(p.shape, nan)},
            "nan callable later": {"velocity": turning(nan)},
            "inf callable later": {"velocity": turning(inf)},
            "nan uniform callable later": {"velocity": turning(nan, uniform=True)},
            "nan diffusivity": {"diffusivity": nan},
            "inf diffusivity": {"diffusivity": inf, "dt": None},
            "nan t_end": {"t_end": nan}, "inf t_end": {"t_end": inf},
            # t_end / dt is inf, then 1e300 steps: past the budget either way.
            "subnormal dt": {"dt": 1e-320}, "tiny dt": {"dt": 1e-300},
            # At one time the first three components ran and the fourth
            # entered |v|max.
            "4-component wind": {"velocity": (0.1, 0, 0, 9.0)},
            "2-component wind": {"velocity": (0.1, 0)},
        }[case])
        if "diffusivity" in case or "t_end" in case:
            error, match = ValueError, "must be finite and > 0"
        elif "component" in case:
            error, match = ValueError, r"velocity has shape \([24],\)"
        else:
            error, match = UnstableTimeStep, None
        with pytest.raises(error, match=match):
            solve_advection_diffusion(grid, kw["diffusivity"], kw["velocity"], src,
                                      t_end=kw["t_end"], dt=kw["dt"])

    # 1e-9 s is 1e9 steps of 343 cells, past the 1e11 cell-update budget.
    @pytest.mark.parametrize("dt", [1e-320, 1e-300, 1e-9])
    def test_tiny_dt_is_refused_before_any_allocation(self, dt, monkeypatch):
        for name in ("zeros", "empty"):
            monkeypatch.setattr(np, name, _refuse)
        grid = FdGrid((-5, -5, -5), (5, 5, 5), (7, 7, 7))
        with pytest.raises(UnstableTimeStep, match=f"dt={dt!r}"):
            solve_advection_diffusion(grid, 0.5, _refuse, [SourceSpec.instant((0, 0, 0), 1.0)],
                                      t_end=1.0, dt=dt)

    def test_huge_diffusivity_is_refused_before_any_allocation(self, monkeypatch):
        # The default dt for D = 1e9 on 7^3 cells is 1.4e-10 s: 7.4e9 steps,
        # which ran until killed before the step count had a budget.
        for name in ("zeros", "empty"):
            monkeypatch.setattr(np, name, _refuse)
        grid = FdGrid((-5, -5, -5), (5, 5, 5), (7, 7, 7))
        start = time.perf_counter()
        with pytest.raises(UnstableTimeStep, match=r"7\.35e\+09 steps of 343 cells"):
            solve_advection_diffusion(grid, 1e9, (0, 0, 0),
                                      [SourceSpec.instant((0, 0, 0), 1.0)], t_end=1.0)
        assert time.perf_counter() - start < 1.0

    def test_standing_source_weights_are_found_once(self, monkeypatch):
        # A standing source off the grid has no cells; its empty list is
        # kept like any other, not recomputed on every step.
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return cic_cells(*args)

        cic_cells = fdpde._cic_cells
        monkeypatch.setattr(fdpde, "_cic_cells", counted)
        grid = FdGrid((-5, -5, -5), (5, 5, 5), (7, 7, 7))
        sources = [SourceSpec.continuous(1.0, position=(20.0, 0.0, 0.0)),
                   SourceSpec.instant((0.3, 0.0, 0.0), 1.0, 0.5)]
        sol = solve_advection_diffusion(grid, 0.5, (0, 0, 0), sources, t_end=1.0, dt=0.1)
        assert sol.steps == 10 and len(calls) == 2
        assert sol.field.sum() * grid.cell_volume() == pytest.approx(1.0, rel=0.2)

    def test_sample_outside_the_box_raises(self):
        grid = FdGrid((-5, -5, -5), (5, 5, 5), (7, 7, 7))
        sol = solve_advection_diffusion(grid, 0.5, (0, 0, 0),
                                        [SourceSpec.instant((0.3, 0, 0), 1.0)], t_end=1.0)
        for bad in ([100.0, 0.0, 0.0], [0.0, -5.001, 0.0], [np.nan, 0.0, 0.0],
                    [0.0, 0.0, np.inf]):
            with pytest.raises(OutOfDomain):
                sol.sample(np.array([[0.0, 0.0, 0.0], bad]))
        # The walls themselves are inside: a corner holds its cell's value.
        corners = sol.sample(np.array([grid.lo, grid.hi]))
        assert corners.tolist() == [sol.field[0, 0, 0], sol.field[-1, -1, -1]]

    def test_instant_source_mass_on_grid(self):
        # Absorbing walls far away: deposited mass stays on the grid.
        grid = FdGrid((-20, -20, -20), (20, 20, 20), (41, 41, 41))
        src = SourceSpec.instant((0.3, -0.2, 0.1), 2.0)
        sol = solve_advection_diffusion(grid, 1.0, (0, 0, 0), [src], t_end=2.0)
        mass = sol.field.sum() * sol.grid.cell_volume()
        assert mass == pytest.approx(2.0, rel=1e-6)

    def test_instant_vs_analytic(self):
        # A lattice delta carries the largest early-time truncation error,
        # so this case gets the finest grid.
        grid = FdGrid((-30, -30, -30), (30, 30, 30), (61, 61, 61))
        env = Environment(diffusivity=8.0, wind=Velocity(1.0, 0.0, 0.0))
        src = SourceSpec.instant((-2.0, 0.0, 0.0), 1.0)
        t_end = 4.0
        sol = solve_advection_diffusion(grid, 8.0, (1.0, 0.0, 0.0), [src], t_end)
        rng = np.random.default_rng(3)
        probes = _probe_points(
            rng, sol, 12,
            exclude_fn=lambda p: np.linalg.norm(p - np.array([-2 + 1 * t_end, 0, 0])) < 4.0,
            margin=10.0, floor=0.05,
        )
        fd = sol.sample(probes)
        an = np.array([concentration_instant(src, env, p, t_end) for p in probes])
        assert (np.abs(fd - an) / an).max() < 0.05

    def test_continuous_vs_analytic(self):
        grid = FdGrid((-30, -30, -30), (30, 30, 30), (41, 41, 41))
        env = Environment(diffusivity=10.0)
        src = SourceSpec.continuous(1.0, position=(0.0, 0.0, 0.0))
        t_end = 2.0
        sol = solve_advection_diffusion(grid, 10.0, (0, 0, 0), [src], t_end)
        rng = np.random.default_rng(4)
        probes = _probe_points(
            rng, sol, 12,
            exclude_fn=lambda p: np.linalg.norm(p) < 5.0,
            margin=10.0,
        )
        fd = sol.sample(probes)
        an = np.array([concentration_continuous(src, env, p, t_end) for p in probes])
        assert (np.abs(fd - an) / an).max() < 0.05

    def test_multi_source_vs_analytic(self):
        # Three seeded random sources against the superposed closed forms.
        grid = FdGrid((-30, -30, -30), (30, 30, 30), (61, 61, 61))
        env = Environment(diffusivity=6.0)
        rng = np.random.default_rng(11)
        sources = []
        for _ in range(3):
            pos = tuple(rng.uniform(-6, 6, size=3))
            if rng.uniform() < 0.5:
                sources.append(SourceSpec.instant(pos, rng.uniform(0.5, 2.0)))
            else:
                sources.append(SourceSpec.continuous(rng.uniform(0.2, 1.0),
                                                     position=pos))
        t_end = 3.0
        sol = solve_advection_diffusion(grid, 6.0, (0, 0, 0), sources, t_end)

        def near_any_source(p):
            return any(np.linalg.norm(p - np.array(s.position.as_array())) < 5.0
                       for s in sources)

        probes = _probe_points(np.random.default_rng(12), sol, 12,
                               exclude_fn=near_any_source, margin=10.0,
                               floor=0.05)
        fd = sol.sample(probes)
        an = evaluate_field(FieldQuery(probes, np.full(len(probes), t_end)),
                            Scenario(env, sources))
        assert (np.abs(fd - an) / an).max() < 0.05

    def test_reflecting_wall_vs_halfspace_images(self):
        # FD with a reflecting floor against the image-sum solution. The FD
        # box only refects at z = lo, so keep the plume away from other walls.
        grid = FdGrid((-24, -24, 0), (24, 24, 48), (41, 41, 41))
        env = Environment(diffusivity=4.0,
                          boundary=HalfSpaceReflecting())
        src = SourceSpec.instant((0.0, 0.0, 3.0), 1.0)
        t_end = 3.0
        sol = solve_advection_diffusion(grid, 4.0, (0, 0, 0), [src], t_end,
                                        boundary="reflecting")
        probes = np.array([[2.0, 1.0, 1.5], [0.0, -3.0, 4.0], [4.0, 0.0, 0.8],
                           [-2.0, 2.0, 6.0]])
        fd = sol.sample(probes)
        an = np.array([concentration_instant(src, env, p, t_end) for p in probes])
        assert (np.abs(fd - an) / an).max() < 0.05

    def test_space_varying_velocity_runs(self):
        # Shear flow is only available through this solver.
        grid = FdGrid((-15, -15, -15), (15, 15, 15), (31, 31, 31))

        def shear(points, t):
            v = np.zeros_like(points)
            v[:, 0] = 0.2 * points[:, 1]
            return v

        src = SourceSpec.instant((0, 0, 0), 1.0)
        sol = solve_advection_diffusion(grid, 2.0, shear, [src], t_end=1.0)
        assert sol.field.min() > -1e-9
        assert sol.field.max() > 0

    def test_trajectory_held_outside_its_span(self):
        # Knots at 5 s and 20 s, emission from 0 s to 25 s: the source holds
        # its first knot before 5 s and its last after 20 s, as the channel's
        # closed form does, so the field equals that of a path with those
        # holds written out as knots, and reflecting walls keep all the mass.
        a, b = (-2.0, 0.5, 0.0), (2.0, -0.5, 1.0)
        short = Trajectory(np.array([5.0, 20.0]), np.array([a, b]))
        held = Trajectory(np.array([0.0, 5.0, 20.0, 25.0]), np.array([a, a, b, b]))
        grid = FdGrid((-6, -6, -6), (6, 6, 6), (13, 13, 13))

        def solve(traj):
            src = SourceSpec.continuous(2.0, trajectory=traj, start_time=0.0)
            return solve_advection_diffusion(grid, 1.0, (0, 0, 0), [src], t_end=25.0,
                                             boundary="reflecting")

        sol = solve(short)
        assert sol.field.tobytes() == solve(held).field.tobytes()
        assert sol.field.sum() * grid.cell_volume() == pytest.approx(2.0 * 25.0, rel=1e-12)
        src = SourceSpec.continuous(2.0, trajectory=short, start_time=0.0)
        assert concentration_continuous(src, Environment(diffusivity=1.0),
                                        (0.0, 0.0, 0.0), 4.0) > 0


@pytest.mark.parametrize("n", [1, 7, 8, 9, 10666])
def test_scratch_rows_start_on_cache_lines(n):
    # The stencil's scratch rows each start on a 64-byte line, wherever the
    # allocator put the block.
    rows = fdpde._line_aligned_rows(4, n)
    assert rows.shape == (4, n)
    assert all(row.ctypes.data % 64 == 0 and row.flags.c_contiguous for row in rows)
