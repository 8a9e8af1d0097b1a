"""Explicit finite-difference solver for the advection-diffusion equation.

This is the package's independent numerical route: it never touches the
closed-form kernels in :mod:`virodyne.channel`, so the two can validate each
other. It is also the only solver that accepts a space- and time-varying
velocity field v(r, t).

Forward-Euler time stepping with central differences (second order in
space); sources are deposited with trilinear (cloud-in-cell) weights each
step, a moving one where its trajectory puts it (at its last knot once its
path ends, by mobility.Trajectory's rule). The weights of a source without
a trajectory are computed once per solve. Walls are either absorbing
(c = 0 outside) or reflecting (zero normal flux). The scheme is
conditionally stable: the default time step is 0.4 times the smaller of the
diffusive bound 1 / (2 D sum(1/h_i^2)) and the advective CFL bound
min(h) / |v|max, an explicit one is checked against both, and every step
checks dt |v|max <= min(h), so a NaN or infinite speed raises
UnstableTimeStep instead of filling the field with NaN. A solve that would
take more than 1e11 cell updates, or whose sources would deposit more than
a float holds in one cell, is refused before the field is allocated.

There is one velocity path: a constant is the callable that returns it at
every time. A velocity the same in every cell (shape (3,), or (cells, 3)
with a cell stride of 0, as np.broadcast_to gives) enters the stencil as
three scalars; any other field is copied each step into a padded buffer.

The field lives in one zero-initialised buffer with a layer of ghost cells,
allocated once per solve and indexed through an (nx+2, ny+2, nz+2) view; c
is that view's interior. In memory the axis with the fewest cells is the
slowest and the one with the most the fastest (ties in x, y, z order), so
the fewest ghost cells lie between interior ones. Each step refreshes the
ghost cells in place (edge copies for reflecting walls, zeros for absorbing
ones) and evaluates the stencil on the flattened buffer: every neighbour
term is one contiguous slice that runs from the first to the last interior
cell, shifted by plus or minus the view's element stride along x, y or z.
The ghost cells inside that run are computed too and overwritten by the
next refresh; a per-cell velocity is copied into a buffer of the same
layout. A uniform velocity component that is exactly 0 adds only zeros, so
its advection term is skipped. All temporaries are preallocated, and the
arithmetic per cell is the same sequence of operations as the plain slice
form (tests/fdpde_oracle.py), so fields are bit-identical to it: a skipped
term could only flip the sign of a zero, and the interior is never -0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .channel import SourceKind, SourceSpec
from .errors import OutOfDomain, UnstableTimeStep, VirodyneError

VelocityField = Union[Sequence[float], np.ndarray, Callable[[np.ndarray, float], np.ndarray]]

_CELL_STEP_BUDGET = 1e11  # cell updates (steps x cells), see solve_advection_diffusion


def _line_aligned_rows(rows: int, n: int) -> np.ndarray:
    """`rows` uninitialised float rows of n, each starting on a 64-byte cache
    line: the stencil's scratch. Left where the allocator puts it, the block
    made a step up to about 15% slower or faster from one process to the
    next."""
    width = -(-n // 8) * 8
    raw = np.empty(rows * width + 7)
    skip = -(raw.ctypes.data // 8) % 8
    return raw[skip:skip + rows * width].reshape(rows, width)[:, :n]


@dataclass(frozen=True)
class FdGrid:
    """Uniform cell-centered grid over an axis-aligned box. Its extents, its
    cell widths squared and its cell volume must each be a finite, positive
    normal float, so the solver's bounds and deposits never overflow or
    divide by 0 (and 2h, at most 2/3 of an extent, is one too)."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    shape: tuple[int, int, int]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("grid box bounds must be finite")
        if not (hi > lo).all():
            raise ValueError("grid box must have positive extent")
        if any(n < 3 for n in self.shape):
            raise ValueError("need at least 3 cells per axis")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        extents = [b - a for a, b in zip(self.lo, self.hi)]
        h = [e / n for e, n in zip(extents, self.shape)]
        sizes = extents + [w * w for w in h] + [math.prod(h)]
        if not all(np.finfo(float).tiny <= v < math.inf for v in sizes):
            raise ValueError(f"grid box {self.lo} .. {self.hi} in {self.shape} cells has an "
                             f"extent, squared cell width or cell volume that is not a "
                             f"finite, positive normal float")

    @property
    def spacing(self) -> np.ndarray:
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        return (hi - lo) / np.array(self.shape, dtype=float)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def cell_centers(self) -> np.ndarray:
        """The (nx, ny, nz, 3) array of cell centres."""
        axes = [lo + (np.arange(n) + 0.5) * h
                for lo, n, h in zip(self.lo, self.shape, self.spacing)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _cic_cells(lo: list[float], h: list[float], shape, point) -> list[tuple]:
    """The cells around `point` that lie on the grid, each as (ix, iy, iz,
    wx, wy, wz) with its trilinear weight per axis. lo and h are the grid's,
    computed once per solve."""
    weights = []
    for p, lo_k, h_k, size in zip(np.asarray(point, dtype=float).tolist(), lo, h, shape):
        f = (p - lo_k) / h_k - 0.5  # fractional index of the cell-centre lattice
        i = math.floor(f)
        w = f - i
        weights.append([(j, w_j) for j, w_j in ((i, 1.0 - w), (i + 1, w))
                        if 0 <= j < size])
    return [(ix, iy, iz, wx, wy, wz) for ix, wx in weights[0]
            for iy, wy in weights[1] for iz, wz in weights[2]]


def _deposit_cic(field: np.ndarray, cells: list[tuple], dens: float) -> None:
    """Add the concentration `dens` (kg/m^3, amount over cell volume) to the
    cells of _cic_cells in proportion to their weights."""
    for ix, iy, iz, wx, wy, wz in cells:
        field[ix, iy, iz] += dens * wx * wy * wz


@dataclass
class FdSolution:
    grid: FdGrid
    field: np.ndarray
    t_end: float
    steps: int

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation of the final field at points in the box
        [lo, hi]; within half a cell of a wall it holds the edge cell's value.
        A point outside the box or not finite raises OutOfDomain."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        h = self.grid.spacing
        lo = np.array(self.grid.lo)
        inside = ((pts >= lo) & (pts <= np.array(self.grid.hi))).all(axis=1)
        if not inside.all():
            raise OutOfDomain(f"sample point {pts[~inside][0].tolist()} lies outside "
                              f"the grid box {self.grid.lo} .. {self.grid.hi}")
        out = np.zeros(pts.shape[0])
        f = (pts - lo) / h - 0.5
        i0 = np.floor(f).astype(int)
        w1 = f - i0
        w0 = 1.0 - w1
        for k, (dx, dy, dz) in enumerate(
            (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
        ):
            ix = np.clip(i0[:, 0] + dx, 0, self.grid.shape[0] - 1)
            iy = np.clip(i0[:, 1] + dy, 0, self.grid.shape[1] - 1)
            iz = np.clip(i0[:, 2] + dz, 0, self.grid.shape[2] - 1)
            w = ((w1 if dx else w0)[:, 0] * (w1 if dy else w0)[:, 1]
                 * (w1 if dz else w0)[:, 2])
            out += w * self.field[ix, iy, iz]
        return out


def _refresh_ghosts(padded: np.ndarray, boundary: str) -> None:
    """Make the ghost layer equal np.pad(interior, 1) in the boundary's mode.

    Reflecting: copy the edge planes axis by axis, so edges and corners end
    up as clamped copies too. Absorbing: the flat update never writes the
    ghost planes of the axis slowest in memory (the largest stride), as they
    lie outside its run; the other two axes' faces are zeroed again."""
    if boundary == "reflecting":
        padded[0], padded[-1] = padded[1], padded[-2]
        padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
        padded[:, :, 0], padded[:, :, -1] = padded[:, :, 1], padded[:, :, -2]
        return
    slowest = int(np.argmax(padded.strides))
    for axis in range(3):
        if axis != slowest:
            faces = np.moveaxis(padded, axis, 0)
            faces[0] = faces[-1] = 0.0


def _step_count(t_end: float, dt: float, n_cells: int, rounding) -> int:
    """t_end / dt as a whole number of steps; UnstableTimeStep past the budget."""
    steps = t_end / dt if dt > 0 else math.inf
    if not steps * n_cells <= _CELL_STEP_BUDGET:
        raise UnstableTimeStep(
            f"dt={dt!r} asks for {steps:g} steps of {n_cells} cells, more than the "
            f"{_CELL_STEP_BUDGET:g} cell updates one solve may take")
    return max(1, int(rounding(steps)))


def solve_advection_diffusion(
    grid: FdGrid,
    diffusivity: float,
    velocity: VelocityField,
    sources: Iterable[SourceSpec],
    t_end: float,
    dt: float | None = None,
    boundary: str = "absorbing",
) -> FdSolution:
    """March c_t = D lap(c) - v . grad(c) + sources from t=0 to t_end.

    boundary: 'absorbing' (c=0 beyond the walls) or 'reflecting' (zero
    normal flux). Instant sources inject their mass at the first step at or
    after their start time; continuous sources deposit rate * dt per step at
    their (possibly moving) midpoint-in-time position, read from
    Trajectory.points_at outside the path's span too.
    The rate is read at that midpoint too, so the deposit smears a rate
    step by at most one dt.

    diffusivity and t_end must be finite and > 0 (else ValueError). Every
    open rate times t_end plus every mass, over one cell volume, is the
    largest density; 4 times it times max(1, sum 1/h^2, D sum 1/h^2), which
    bounds the stencil's intermediates, must be finite, else VirodyneError
    before the field is allocated. The default dt is 0.4 times the smaller
    of the diffusive bound and the advective bound min(h) / |v|max at t=0,
    the step count rounded up; an explicit dt is rounded to t_end / n for
    the nearest count n. Either count is refused with UnstableTimeStep,
    before the field is allocated, once steps x cells passes 1e11 cell
    updates (about half an hour at 5.5e7 per second): a tiny dt, or a huge
    D whose diffusive bound asks for billions of steps, raises at once
    instead of running for days. So does a dt that is not finite and > 0,
    a step above either bound, or a speed at t=0 that is not finite.

    A constant velocity is the callable that returns it at every time. The
    velocity is read at t=0 and at each step's midpoint and must have shape
    (3,) or (cells, 3), else ValueError; the same in every cell ((3,), or a
    cell stride of 0) it enters the stencil as three scalars, else through
    a padded buffer in the field's memory order. Every step raises
    UnstableTimeStep unless dt |v|max <= min(h), so a flow that speeds up
    after t=0, or turns NaN or inf, fails loudly instead of blowing up.

    Cloud-in-cell weights are computed once per solve for a source without
    a trajectory and on every step for a moving one. The result's field is
    a fresh C-contiguous (nx, ny, nz) copy of the padded buffer's interior.
    """
    if boundary not in ("absorbing", "reflecting"):
        raise ValueError("boundary must be 'absorbing' or 'reflecting'")
    D = float(diffusivity)
    if not 0 < D < math.inf:
        raise ValueError(f"diffusivity must be finite and > 0, got {D}")
    t_end = float(t_end)
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    sources = list(sources)
    volume = grid.cell_volume()
    h = grid.spacing
    inv_h2 = float((1.0 / h**2).sum())  # finite: FdGrid's h^2 are normal floats
    # At most every open rate for the whole run plus every mass, in one cell.
    # The stencil's intermediates (2c, the Laplacian's partial sums and D
    # times the Laplacian) stay within 4 x that density x max(1, sum 1/h^2,
    # D sum 1/h^2).
    load = sum(src.strength if src.kind is SourceKind.INSTANT
               else t_end * sum(q for begin, _, q in src.windows if begin < t_end)
               for src in sources)
    peak = 4.0 * (load / volume) * max(1.0, inv_h2, D * inv_h2)
    if not math.isfinite(peak):
        raise VirodyneError(f"the sources may deposit {load:g} kg in one cell of "
                            f"{volume:g} m^3, which the stencil would carry past the "
                            f"largest float")
    shape = grid.shape
    n_cells = math.prod(shape)
    if dt is not None:
        dt = float(dt)
        if not 0 < dt < math.inf:
            raise UnstableTimeStep(f"dt={dt} must be finite and > 0")
        n_steps = _step_count(t_end, dt, n_cells, round)
    if not callable(velocity):
        constant = np.asarray(velocity, dtype=float)
        velocity = lambda _points, _t: constant
    centers = grid.cell_centers().reshape(-1, 3)
    # A padded buffer holds the axis with the fewest cells slowest in memory;
    # `strides` are the element strides of its (x, y, z) view, and the flat
    # run goes from the first to the last interior cell. A velocity that
    # varies in space gets such a buffer when it shows.
    order = sorted(range(3), key=lambda k: (shape[k], k))
    memory_shape = tuple(shape[k] + 2 for k in order)
    xyz = [order.index(k) for k in range(3)]
    strides = [math.prod(memory_shape[j + 1:]) for j in xyz]
    first = sum(strides)
    n = sum((k - 1) * s for k, s in zip(shape, strides)) + 1
    vel_padded = None

    def padded_zeros(*lead: int) -> tuple[np.ndarray, np.ndarray]:
        """A zero buffer in memory order, and its (*lead, x, y, z) view."""
        buf = np.zeros(lead + memory_shape)
        return buf, buf.transpose(*range(len(lead)), *(len(lead) + j for j in xyz))

    def load_velocity(t: float) -> tuple:
        """The velocity at time t as (vx, vy, vz, |v|max): three floats for a
        uniform field, else views of the padded velocity buffer."""
        nonlocal vel_padded
        v = np.asarray(velocity(centers, t), dtype=float)
        if v.shape == (3,) or (v.shape == centers.shape and v.strides[0] == 0):
            ux, uy, uz = v.reshape(-1, 3)[0].tolist()
            return ux, uy, uz, math.sqrt(ux * ux + uy * uy + uz * uz)
        if v.shape != centers.shape:
            raise ValueError(f"velocity has shape {v.shape}; it must be (3,) or "
                             f"(cells, 3) = {centers.shape}")
        if vel_padded is None:
            vel_padded = padded_zeros(3)
        buf, view = vel_padded
        view[:, 1:-1, 1:-1, 1:-1] = np.moveaxis(v.reshape(shape + (3,)), -1, 0)
        bx, by, bz = buf.reshape(3, -1)[:, first:first + n]
        return bx, by, bz, math.sqrt(float((bx * bx + by * by + bz * bz).max()))

    vmax = load_velocity(0.0)[3]
    if not math.isfinite(vmax):
        raise UnstableTimeStep(f"the speed at t=0 is {vmax} m/s; it must be finite")
    h_min = float(h.min())
    diff_bound = 0.5 / (D * inv_h2)
    adv_bound = h_min / vmax if vmax > 0 else math.inf
    bound = min(diff_bound, adv_bound)
    if dt is None:
        dt = 0.4 * bound
        n_steps = _step_count(t_end, dt, n_cells, math.ceil)
    requested, dt = dt, t_end / n_steps
    if dt > bound:
        raise UnstableTimeStep(f"dt={requested} runs as {n_steps} step(s) of {dt:.6g} s, "
                               f"which exceeds the stability bound {bound:.3g}")

    buf, padded = padded_zeros()
    c = padded[1:-1, 1:-1, 1:-1]
    flat = buf.reshape(-1)
    sx, sy, sz = strides
    centre, xp, xm, yp, ym, zp, zm = (flat[first + o:first + o + n]
                                      for o in (0, sx, -sx, sy, -sy, sz, -sz))
    two_c, lap, term, adv = _line_aligned_rows(4, n)

    lo, h_list = list(grid.lo), h.tolist()
    hx2, hy2, hz2 = h[0] ** 2, h[1] ** 2, h[2] ** 2
    h2x, h2y, h2z = 2 * h[0], 2 * h[1], 2 * h[2]
    # Weights of the sources that stand still, worked out once.
    fixed = [None if src.is_moving else _cic_cells(lo, h_list, shape, src.point_at(0.0))
             for src in sources]
    injected_instant = [False] * len(sources)
    t = 0.0
    for step in range(n_steps):
        t_mid = t + 0.5 * dt
        for k, src in enumerate(sources):
            if src.kind is SourceKind.INSTANT:
                if injected_instant[k] or t + dt < src.start_time:
                    continue
                injected_instant[k] = True
                at, amount = src.start_time, src.strength
            elif t_mid >= src.start_time:
                at, amount = t_mid, src.rate_at(t_mid) * dt
            else:
                continue
            cells = fixed[k]
            if cells is None:
                cells = _cic_cells(lo, h_list, shape, src.point_at(at))
            _deposit_cic(c, cells, amount / volume)
        _refresh_ghosts(padded, boundary)
        vx, vy, vz, vmax = load_velocity(t_mid)
        if not dt * vmax <= h_min:
            raise UnstableTimeStep(f"at t={t_mid:.6g} s the speed {vmax:.3g} m/s breaks the "
                                   f"advective bound dt={dt:.3g} <= {h_min / vmax:.3g}; "
                                   f"pass a smaller dt")
        # D lap(c): (p - 2c + m) / h^2 summed over x, y, z.
        np.multiply(2, centre, out=two_c)
        np.subtract(xp, two_c, out=lap)
        np.add(lap, xm, out=lap)
        np.divide(lap, hx2, out=lap)
        for p, m, hh in ((yp, ym, hy2), (zp, zm, hz2)):
            np.subtract(p, two_c, out=term)
            np.add(term, m, out=term)
            np.divide(term, hh, out=term)
            np.add(lap, term, out=lap)
        # v . grad(c) with central differences (p - m) / 2h. A uniform
        # component that is exactly 0 is skipped; adv starts from the first
        # that is not.
        drifts = [(p, m, hh, v) for p, m, hh, v in
                  ((xp, xm, h2x, vx), (yp, ym, h2y, vy), (zp, zm, h2z, vz))
                  if not (isinstance(v, float) and v == 0.0)]
        for i, (p, m, hh, v) in enumerate(drifts):
            np.subtract(p, m, out=term)
            np.divide(term, hh, out=term)
            np.multiply(v, term, out=term if i else adv)
            if i:
                np.add(adv, term, out=adv)
        # c + dt (D lap - adv), written in place once every read is done.
        np.multiply(D, lap, out=lap)
        if drifts:
            np.subtract(lap, adv, out=lap)
        np.multiply(dt, lap, out=lap)
        np.add(centre, lap, out=centre)
        t += dt
    return FdSolution(grid=grid, field=c.copy(order="C"), t_end=t, steps=n_steps)
