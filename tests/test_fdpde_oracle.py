"""The fused fdpde step against the slice-and-pad loop it replaced
(tests/fdpde_oracle.py): same field bits, step count and end time."""

import math

import numpy as np
import pytest

import fdpde_oracle
from virodyne import fdpde
from virodyne.channel import SourceSpec
from virodyne.fdpde import FdGrid, solve_advection_diffusion
from virodyne.mobility import Trajectory


def _gust(base, amp, period, phase):
    base = np.asarray(base, dtype=float)

    def velocity(points, t):
        scale = 1.0 + amp * math.sin(2.0 * math.pi * t / period + phase)
        return np.broadcast_to(base * scale, points.shape)
    return velocity


def _swirl(points, t):
    v = np.empty_like(points)
    v[:, 0] = -0.05 * points[:, 1] * (1.0 + 0.2 * t)
    v[:, 1] = 0.05 * points[:, 0]
    v[:, 2] = 0.01 * np.sin(points[:, 0])
    return v


# The benchmark's hall: 60 x 45 x 3 m in 40 x 30 x 8 cells.
HALL = FdGrid((0.0, 0.0, 0.0), (60.0, 45.0, 3.0), (40, 30, 8))
PLUME = [SourceSpec.continuous(1.0e-6, position=(15.3, 17.2, 1.3)),
         SourceSpec.instant((14.1, 19.9, 1.7), 2.0e-5, 3.0)]
WALK = Trajectory.straight_line((-3.0, -1.0, 0.5), (1.5, 0.5, 0.0), 0.0, 4.0)

CASES = {
    "reflecting, callable gust": (
        HALL, 0.5, _gust((0.3, 0.1, 0.0), 0.5, 8.0, 0.7), PLUME, 10.0,
        {"dt": 0.05, "boundary": "reflecting"}),
    "absorbing, constant wind": (
        HALL, 0.4, (0.3, -0.2, 0.05), PLUME, 5.0, {"dt": 0.05}),
    "moving continuous source": (
        FdGrid((-8.0, -6.0, -4.0), (8.0, 6.0, 4.0), (17, 13, 9)), 1.5, (0.2, 0.0, 0.0),
        [SourceSpec.continuous(1.0, trajectory=WALK, start_time=0.3)], 3.0, {}),
    "instant sources only, reflecting": (
        FdGrid((-5.0, -5.0, -5.0), (5.0, 5.0, 5.0), (13, 13, 13)), 2.0, (0.0, 0.0, 0.0),
        [SourceSpec.instant((0.3, -0.2, 0.1), 1.0),
         SourceSpec.instant((-1.7, 2.2, 0.9), 0.5, 0.4),
         # within half a cell of a corner: some CIC weights fall off the grid
         SourceSpec.instant((-4.9, 4.8, -4.95), 0.25, 0.1)], 1.0,
        {"boundary": "reflecting"}),
    "non-cubic, one axis of 3 cells": (
        FdGrid((-6.0, -3.0, 0.0), (6.0, 3.0, 0.9), (20, 11, 3)), 0.8, _swirl,
        [SourceSpec.continuous(0.5, position=(1.1, -0.4, 0.5)),
         SourceSpec.instant((-2.3, 1.2, 0.2), 1.0, 0.2)], 2.0,
        {"boundary": "reflecting"}),
    "non-cubic, absorbing, callable": (
        FdGrid((0.0, -2.0, -1.0), (1.2, 2.0, 1.0), (3, 10, 7)), 0.3, _swirl,
        [SourceSpec.continuous(1.0, position=(0.6, 0.3, 0.1))], 1.0, {}),
}


@pytest.mark.parametrize("name", list(CASES))
def test_fields_are_bit_identical_to_the_oracle(name):
    grid, D, velocity, sources, t_end, kw = CASES[name]
    got = solve_advection_diffusion(grid, D, velocity, sources, t_end, **kw)
    want = fdpde_oracle.solve_advection_diffusion(grid, D, velocity, sources, t_end, **kw)
    assert got.steps == want.steps > 1
    assert got.t_end == want.t_end
    assert got.field.flags.c_contiguous
    assert np.array_equal(got.field, want.field)
    assert got.field.max() > 0


@pytest.mark.parametrize("boundary", ["absorbing", "reflecting"])
def test_ghost_refresh_equals_np_pad(boundary):
    # Interior values plus garbage in every ghost cell, as the flat update
    # leaves them: the refresh must restore exactly np.pad of the interior.
    rng = np.random.default_rng(5)
    padded = rng.normal(size=(6, 5, 4))
    if boundary == "absorbing":
        # The flat update never writes the x ghost planes.
        padded[0] = padded[-1] = 0.0
    fdpde._refresh_ghosts(padded, boundary)
    interior = padded[1:-1, 1:-1, 1:-1]
    mode = "edge" if boundary == "reflecting" else "constant"
    assert np.array_equal(padded, np.pad(interior, 1, mode=mode))
