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
conditionally stable; the default time step respects both the diffusive
bound dt <= 1 / (2 D sum(1/h_i^2)) and the advective CFL bound with a 0.4
safety factor, an explicit one is checked against both after it is rounded
to t_end / n steps, and a callable velocity is checked against the advective
bound dt |v|max <= min(h) on every step, so a NaN or infinite speed raises
UnstableTimeStep instead of filling the field with NaN.

A velocity the same in every cell, a constant 3-vector or a callable that
returns shape (3,) or a (cells, 3) array with a cell stride of 0 (as
np.broadcast_to gives), enters the stencil as three scalars; any other
callable field is copied each step into a padded buffer laid out like the
field.

The field lives in one zero-initialised buffer with a layer of ghost cells,
(nx+2, ny+2, nz+2), allocated once per solve; c is its interior view. Each
step refreshes the ghost cells in place (edge copies for reflecting walls,
zeros for absorbing ones) and evaluates the stencil on the flattened buffer:
every neighbour term is one contiguous slice that runs from the first to the
last interior cell, shifted by +-sx, +-sy or +-1 (the x and y strides of the
padded buffer). The ghost cells inside that run are computed too and
overwritten by the next refresh. All temporaries are preallocated, and the
arithmetic per cell is the same sequence of operations as the plain slice
form (tests/fdpde_oracle.py), so fields are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .channel import SourceKind, SourceSpec
from .errors import OutOfDomain, UnstableTimeStep

VelocityField = Union[Sequence[float], np.ndarray, Callable[[np.ndarray, float], np.ndarray]]


@dataclass(frozen=True)
class FdGrid:
    """Uniform cell-centered grid over an axis-aligned box."""

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

    @property
    def spacing(self) -> np.ndarray:
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        return (hi - lo) / np.array(self.shape, dtype=float)

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return self.lo[axis] + (np.arange(self.shape[axis]) + 0.5) * h

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def cell_centers(self) -> np.ndarray:
        xs, ys, zs = (self.axis_centers(k) for k in range(3))
        xx, yy, zz = np.meshgrid(xs, ys, zs, indexing="ij")
        return np.stack([xx, yy, zz], axis=-1)


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
    up as clamped copies too. Absorbing: the flat update never writes the x
    ghost planes, only the y and z faces, which are zeroed again."""
    if boundary == "reflecting":
        padded[0], padded[-1] = padded[1], padded[-2]
        padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
        padded[:, :, 0], padded[:, :, -1] = padded[:, :, 1], padded[:, :, -2]
    else:
        padded[:, 0] = padded[:, -1] = 0.0
        padded[:, :, 0] = padded[:, :, -1] = 0.0


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

    diffusivity and t_end must be finite and > 0 (else ValueError). The
    default dt is 0.4 times the smaller of the diffusive bound and the
    advective bound min(h) / |v|max, the latter taken from the velocity at
    t=0. An explicit dt is rounded to t_end / n steps; a requested dt that is
    not finite and > 0 or asks for 2**53 steps or more (checked before any
    array is allocated), or an effective one above either bound, raises
    UnstableTimeStep, as does a speed at t=0 that is not finite.

    A callable velocity is evaluated at each step's midpoint. When it is
    the same in every cell (shape (3,), or (cells, 3) with a cell stride of
    0, as np.broadcast_to gives) the stencil takes it as three scalars;
    any other field goes into a padded (3, nx+2, ny+2, nz+2) buffer laid
    out like the field. Either way the step raises UnstableTimeStep unless
    dt |v|max <= min(h) there, so a flow that speeds up after t=0, or turns
    NaN or inf, fails loudly instead of blowing up.

    Cloud-in-cell weights are computed once per solve for a source without
    a trajectory and on every step for a moving one. The step works on one
    ghost-padded buffer and preallocated temporaries (see the module
    docstring); the result's field is a fresh contiguous copy of its
    interior.
    """
    if boundary not in ("absorbing", "reflecting"):
        raise ValueError("boundary must be 'absorbing' or 'reflecting'")
    D = float(diffusivity)
    if not 0 < D < math.inf:
        raise ValueError(f"diffusivity must be finite and > 0, got {D}")
    t_end = float(t_end)
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if dt is not None:
        requested = float(dt)
        if not 0 < requested < math.inf:
            raise UnstableTimeStep(f"dt={requested} must be finite and > 0")
        # Past 2**53 steps the count is no longer an exact integer and
        # t + dt stops advancing t.
        if not t_end / requested < 2.0 ** 53:
            raise UnstableTimeStep(f"dt={requested} asks for t_end / dt = "
                                   f"{t_end / requested:g} steps, more than 2**53")
    h = grid.spacing
    h_min = float(h.min())
    shape = grid.shape
    padded = np.zeros(tuple(n + 2 for n in shape))
    c = padded[1:-1, 1:-1, 1:-1]
    # The run of the flattened buffer from the first to the last interior
    # cell, and its copies shifted by one cell along each axis.
    sy = shape[2] + 2
    sx = (shape[1] + 2) * sy
    first = sx + sy + 1
    n = shape[0] * sx + shape[1] * sy + shape[2] - first + 1
    flat = padded.reshape(-1)
    centre, xp, xm, yp, ym, zp, zm = (flat[first + o:first + o + n]
                                      for o in (0, sx, -sx, sy, -sy, 1, -1))
    two_c, lap, term, adv = np.empty((4, n))

    if callable(velocity):
        centers = grid.cell_centers().reshape(-1, 3)
        vel_padded = np.zeros((3,) + padded.shape)
        vel_cells = vel_padded[:, 1:-1, 1:-1, 1:-1]
        bx, by, bz = vel_padded.reshape(3, -1)[:, first:first + n]

        def load_velocity(t: float) -> tuple:
            """The velocity at time t as (vx, vy, vz, |v|max): three floats
            for a uniform field, else views of the padded buffer."""
            v = np.asarray(velocity(centers, t), dtype=float)
            if v.shape == (3,) or (v.shape == centers.shape and v.strides[0] == 0):
                ux, uy, uz = v.reshape(-1, 3)[0].tolist()
                return ux, uy, uz, math.sqrt(ux * ux + uy * uy + uz * uz)
            vel_cells[...] = np.moveaxis(v.reshape(shape + (3,)), -1, 0)
            # |v|^2 on the padded buffers (ghosts hold 0), in lap and term,
            # which the stencil overwrites afterwards.
            np.multiply(bx, bx, out=lap)
            np.multiply(by, by, out=term)
            np.add(lap, term, out=lap)
            np.multiply(bz, bz, out=term)
            np.add(lap, term, out=lap)
            return bx, by, bz, math.sqrt(lap.max())

        vx, vy, vz, vmax = load_velocity(0.0)
    else:
        v = np.asarray(velocity, dtype=float)
        vx, vy, vz = v[0], v[1], v[2]
        vmax = float(np.linalg.norm(v))
    if not math.isfinite(vmax):
        raise UnstableTimeStep(f"the speed at t=0 is {vmax} m/s; it must be finite")

    diff_bound = 0.5 / (D * float((1.0 / h**2).sum()))
    adv_bound = h_min / vmax if vmax > 0 else math.inf
    bound = min(diff_bound, adv_bound)
    if dt is None:
        n_steps = max(1, int(math.ceil(t_end / (0.4 * bound))))
        dt = t_end / n_steps
    else:
        n_steps = max(1, int(round(t_end / requested)))
        dt = t_end / n_steps
        if dt > bound:
            raise UnstableTimeStep(
                f"dt={requested} runs as {n_steps} step(s) of {dt:.6g} s, which "
                f"exceeds the stability bound {bound:.3g}"
            )

    sources = list(sources)
    lo, h_list, volume = list(grid.lo), h.tolist(), grid.cell_volume()
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
                if not injected_instant[k] and t + dt >= src.start_time:
                    cells = fixed[k] or _cic_cells(lo, h_list, shape,
                                                   src.point_at(src.start_time))
                    _deposit_cic(c, cells, src.strength / volume)
                    injected_instant[k] = True
            else:
                if t_mid >= src.start_time:
                    cells = fixed[k] or _cic_cells(lo, h_list, shape, src.point_at(t_mid))
                    _deposit_cic(c, cells, src.rate_at(t_mid) * dt / volume)
        _refresh_ghosts(padded, boundary)
        if callable(velocity):
            vx, vy, vz, vmax = load_velocity(t_mid)
            if not dt * vmax <= h_min:
                raise UnstableTimeStep(
                    f"at t={t_mid:.6g} s the speed {vmax:.3g} m/s breaks the "
                    f"advective bound dt={dt:.3g} <= {h_min / vmax:.3g}; "
                    f"pass a smaller dt"
                )
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
        # v . grad(c) with central differences (p - m) / 2h.
        np.subtract(xp, xm, out=term)
        np.divide(term, h2x, out=term)
        np.multiply(vx, term, out=adv)
        for p, m, hh, v in ((yp, ym, h2y, vy), (zp, zm, h2z, vz)):
            np.subtract(p, m, out=term)
            np.divide(term, hh, out=term)
            np.multiply(v, term, out=term)
            np.add(adv, term, out=adv)
        # c + dt (D lap - adv), written in place once every read is done.
        np.multiply(D, lap, out=lap)
        np.subtract(lap, adv, out=lap)
        np.multiply(dt, lap, out=lap)
        np.add(centre, lap, out=centre)
        t += dt
    return FdSolution(grid=grid, field=c.copy(), t_end=t, steps=n_steps)
