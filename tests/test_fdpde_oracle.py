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


def _gust_vector(base, amp, period, phase):
    """A gust the same in every cell, returned as one vector of shape (3,)."""
    base = np.asarray(base, dtype=float)

    def velocity(points, t):
        return base * (1.0 + amp * math.sin(2.0 * math.pi * t / period + phase))
    return velocity


def _broadcast(vector_velocity):
    """The same field broadcast to every cell: shape (cells, 3), stride 0."""
    def velocity(points, t):
        return np.broadcast_to(vector_velocity(points, t), points.shape)
    return velocity


def _gust(base, amp, period, phase):
    return _broadcast(_gust_vector(base, amp, period, phase))


def _swirl(points, t):
    v = np.empty_like(points)
    v[:, 0] = -0.05 * points[:, 1] * (1.0 + 0.2 * t)
    v[:, 1] = 0.05 * points[:, 0]
    v[:, 2] = 0.01 * np.sin(points[:, 0])
    return v


_GUST = _gust((0.3, 0.1, 0.0), 0.5, 8.0, 0.7)


def _switching(points, t):
    # With dt = 0.05 the step index is int(t / 0.05): a uniform gust on even
    # steps (t = 0 included), the swirl on odd ones, so the stencil's
    # velocity switches between scalars and the buffer's views every step.
    if int(t / 0.05) % 2:
        return _swirl(points, t)
    return _GUST(points, t)


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
    "absorbing, callable gust": (
        HALL, 0.5, _GUST, PLUME, 5.0, {"dt": 0.05}),
    "callable of shape (3,)": (
        HALL, 0.5, _gust_vector((-0.2, 0.25, 0.02), 0.3, 3.0, 0.1), PLUME, 5.0,
        {"dt": 0.05, "boundary": "reflecting"}),
    "uniform and per-cell by turns": (
        FdGrid((-6.0, -3.0, 0.0), (6.0, 3.0, 0.9), (20, 11, 3)), 0.3, _switching,
        [SourceSpec.continuous(0.5, position=(1.1, -0.4, 0.5))], 2.0, {"dt": 0.05}),
}



def _toggling(points, t):
    # With dt = 0.05 each component of a uniform gust switches between an
    # exact 0 (x as +0.0, y as -0.0) and a drift on its own beat, so the set
    # of skipped components changes from step to step, and one step in 8 is
    # at rest.
    k = int(t / 0.05) % 8
    v = (0.3 if k & 1 else 0.0, -0.2 if k & 2 else -0.0, 0.05 if k & 4 else 0.0)
    return np.broadcast_to(np.array(v), points.shape)


def _still_column(points, t):
    # A per-cell field whose z column is 0 in every cell: an array, never
    # skipped, whose zeros must still keep the field's bits.
    v = _swirl(points, t)
    v[:, 2] = 0.0
    return v


def _cube(shape):
    return FdGrid((-3.0, -2.0, -1.0), (3.0, 2.0, 1.0), shape)


# The axis with the fewest cells goes slowest in memory: y here, with ties
# and a 3-cell cube too. Absorbing cases whose slowest axis is not x check
# that the flat run's unwritten ghost planes are the right ones.
PAIR = [SourceSpec.continuous(0.5, position=(0.4, -0.3, 0.2)),
        SourceSpec.instant((-0.9, 0.6, -0.4), 1.0, 0.1)]
CASES.update({
    "y fewest, absorbing": (_cube((12, 5, 9)), 0.3, (0.2, -0.1, 0.05), PAIR, 1.0, {}),
    "y fewest, reflecting": (
        _cube((12, 5, 9)), 0.3, _swirl, PAIR, 1.0, {"boundary": "reflecting"}),
    "x and z tie fewest, absorbing": (_cube((6, 9, 6)), 0.3, _swirl, PAIR, 1.0, {}),
    "x and z tie fewest, reflecting": (
        _cube((6, 9, 6)), 0.3, (0.1, 0.2, -0.05), PAIR, 1.0, {"boundary": "reflecting"}),
    "3 x 3 x 3, absorbing": (
        _cube((3, 3, 3)), 0.3, (0.1, -0.2, 0.05), PAIR, 1.0, {}),
    "3 x 3 x 3, reflecting": (
        _cube((3, 3, 3)), 0.3, _swirl, PAIR, 1.0, {"boundary": "reflecting"}),
    "z fewest, absorbing, per-cell": (
        HALL, 0.5, _swirl, PLUME, 5.0, {"dt": 0.05}),
    "wind with an exact 0": (
        _cube((12, 5, 9)), 0.3, (0.2, 0.0, 0.05), PAIR, 1.0, {}),
    "wind with a -0.0": (
        _cube((6, 9, 6)), 0.3, (-0.0, 0.2, -0.05), PAIR, 1.0, {"boundary": "reflecting"}),
    "wind of zeros and a -0.0": (
        _cube((12, 5, 9)), 0.3, (0.0, -0.0, 0.0), PAIR, 1.0, {}),
    "gust switching components off": (
        _cube((12, 5, 9)), 0.3, _toggling, PAIR, 1.0, {"dt": 0.05}),
    "per-cell field with a column of 0": (
        _cube((12, 5, 9)), 0.3, _still_column, PAIR, 1.0, {"boundary": "reflecting"}),
})

# The oracle reshapes every callable's return to the grid, so it is handed
# the same field broadcast to (cells, 3).
ORACLE_VELOCITY = {
    "callable of shape (3,)": _broadcast(CASES["callable of shape (3,)"][2]),
}


@pytest.mark.parametrize("name", list(CASES))
def test_fields_are_bit_identical_to_the_oracle(name):
    grid, D, velocity, sources, t_end, kw = CASES[name]
    got = solve_advection_diffusion(grid, D, velocity, sources, t_end, **kw)
    want = fdpde_oracle.solve_advection_diffusion(
        grid, D, ORACLE_VELOCITY.get(name, velocity), sources, t_end, **kw)
    assert got.steps == want.steps > 1
    assert got.t_end == want.t_end
    assert got.field.flags.c_contiguous
    assert np.array_equal(got.field, want.field)
    assert got.field.tobytes() == want.field.tobytes()
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


@pytest.mark.parametrize("boundary", ["absorbing", "reflecting"])
@pytest.mark.parametrize("memory_order", [(1, 0, 2), (2, 0, 1), (0, 2, 1)])
def test_ghost_refresh_of_a_transposed_buffer_equals_np_pad(boundary, memory_order):
    # The solver's buffer holds its axes in any memory order behind an
    # (x, y, z) view; for absorbing walls the planes of the axis slowest in
    # memory are the ones the flat update never writes.
    rng = np.random.default_rng(7)
    shape = (6, 5, 4)
    buf = rng.normal(size=tuple(shape[k] for k in memory_order))
    padded = buf.transpose([memory_order.index(k) for k in range(3)])
    assert padded.shape == shape
    if boundary == "absorbing":
        buf[0] = buf[-1] = 0.0
    fdpde._refresh_ghosts(padded, boundary)
    interior = padded[1:-1, 1:-1, 1:-1]
    mode = "edge" if boundary == "reflecting" else "constant"
    assert np.array_equal(padded, np.pad(interior, 1, mode=mode))


@pytest.mark.parametrize("boundary", ["absorbing", "reflecting"])
def test_still_uniform_callable_equals_the_tuple(boundary):
    # A constant tuple is the callable that returns it at every time, so the
    # fields match bit for bit, whether the callable returns shape (3,) or
    # broadcasts to every cell, and with the default dt, whose step count
    # comes from |v| at t=0, as well as an explicit one.
    wind = (0.3, -0.2, 0.05)
    vector = np.array(wind)
    for dt in (0.05, None):
        want = solve_advection_diffusion(HALL, 0.4, wind, PLUME, 5.0, dt=dt,
                                         boundary=boundary)
        for velocity in (lambda p, t: vector, _broadcast(lambda p, t: vector)):
            got = solve_advection_diffusion(HALL, 0.4, velocity, PLUME, 5.0, dt=dt,
                                            boundary=boundary)
            assert got.steps == want.steps
            assert np.array_equal(got.field, want.field)
