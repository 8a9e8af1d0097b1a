"""The fdpde time loop as it was before it kept one padded buffer: each
step pads the field with `np.pad`, builds the Laplacian and the gradients
from strided 3-D slices and allocates every temporary afresh. Kept as the
reference whose fields the fused loop must reproduce bit for bit."""

import math

import numpy as np

from virodyne.channel import SourceKind
from virodyne.fdpde import FdGrid, FdSolution


def _pad(c, boundary):
    mode = "edge" if boundary == "reflecting" else "constant"
    return np.pad(c, 1, mode=mode)


def _laplacian(cp, h):
    core = cp[1:-1, 1:-1, 1:-1]
    lap = (cp[2:, 1:-1, 1:-1] - 2 * core + cp[:-2, 1:-1, 1:-1]) / h[0] ** 2
    lap += (cp[1:-1, 2:, 1:-1] - 2 * core + cp[1:-1, :-2, 1:-1]) / h[1] ** 2
    lap += (cp[1:-1, 1:-1, 2:] - 2 * core + cp[1:-1, 1:-1, :-2]) / h[2] ** 2
    return lap


def _gradient(cp, h):
    gx = (cp[2:, 1:-1, 1:-1] - cp[:-2, 1:-1, 1:-1]) / (2 * h[0])
    gy = (cp[1:-1, 2:, 1:-1] - cp[1:-1, :-2, 1:-1]) / (2 * h[1])
    gz = (cp[1:-1, 1:-1, 2:] - cp[1:-1, 1:-1, :-2]) / (2 * h[2])
    return gx, gy, gz


def _deposit_cic(field, grid: FdGrid, point, amount):
    h = grid.spacing
    lo = np.array(grid.lo)
    f = (np.asarray(point, dtype=float) - lo) / h - 0.5
    i0 = np.floor(f).astype(int)
    w1 = f - i0
    w0 = 1.0 - w1
    dens = amount / grid.cell_volume()
    for dx, wx in ((0, w0[0]), (1, w1[0])):
        ix = i0[0] + dx
        if not 0 <= ix < grid.shape[0]:
            continue
        for dy, wy in ((0, w0[1]), (1, w1[1])):
            iy = i0[1] + dy
            if not 0 <= iy < grid.shape[1]:
                continue
            for dz, wz in ((0, w0[2]), (1, w1[2])):
                iz = i0[2] + dz
                if not 0 <= iz < grid.shape[2]:
                    continue
                field[ix, iy, iz] += dens * wx * wy * wz


def _velocity_on_grid(velocity, grid, t, centers):
    if callable(velocity):
        flat = velocity(centers.reshape(-1, 3), t)
        v = np.asarray(flat, dtype=float).reshape(grid.shape + (3,))
        return v[..., 0], v[..., 1], v[..., 2]
    v = np.asarray(velocity, dtype=float)
    shape = grid.shape
    return (np.full(shape, v[0]), np.full(shape, v[1]), np.full(shape, v[2]))


def _max_speed(velocity, grid, centers):
    if callable(velocity):
        vx, vy, vz = _velocity_on_grid(velocity, grid, 0.0, centers)
        return float(np.sqrt(vx**2 + vy**2 + vz**2).max())
    return float(np.linalg.norm(np.asarray(velocity, dtype=float)))


def solve_advection_diffusion(grid, diffusivity, velocity, sources, t_end,
                              dt=None, boundary="absorbing"):
    if boundary not in ("absorbing", "reflecting"):
        raise ValueError("boundary must be 'absorbing' or 'reflecting'")
    D = float(diffusivity)
    if D <= 0:
        raise ValueError("diffusivity must be > 0")
    t_end = float(t_end)
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    h = grid.spacing
    centers = grid.cell_centers()
    diff_bound = 0.5 / (D * float((1.0 / h**2).sum()))
    vmax = _max_speed(velocity, grid, centers)
    adv_bound = float(h.min()) / vmax if vmax > 0 else math.inf
    dt_stable = 0.4 * min(diff_bound, adv_bound)
    if dt is None:
        n_steps = max(1, int(math.ceil(t_end / dt_stable)))
        dt = t_end / n_steps
    else:
        dt = float(dt)
        if dt > min(diff_bound, adv_bound):
            raise ValueError(
                f"dt={dt} exceeds the stability bound "
                f"{min(diff_bound, adv_bound):.3g}"
            )
        n_steps = max(1, int(round(t_end / dt)))
        dt = t_end / n_steps

    sources = list(sources)
    const_vel = not callable(velocity)
    if const_vel:
        vx, vy, vz = _velocity_on_grid(velocity, grid, 0.0, centers)

    c = np.zeros(grid.shape)
    injected_instant = [False] * len(sources)
    t = 0.0
    for step in range(n_steps):
        t_mid = t + 0.5 * dt
        for k, src in enumerate(sources):
            if src.kind is SourceKind.INSTANT:
                if not injected_instant[k] and t + dt >= src.start_time:
                    _deposit_cic(c, grid, src.point_at(src.start_time), src.strength)
                    injected_instant[k] = True
            else:
                if t_mid >= src.start_time:
                    pos = src.point_at(min(t_mid, float(src.trajectory.times[-1]))
                                       if src.trajectory is not None else t_mid)
                    _deposit_cic(c, grid, pos, src.rate_at(t_mid) * dt)
        cp = _pad(c, boundary)
        lap = _laplacian(cp, h)
        gx, gy, gz = _gradient(cp, h)
        if not const_vel:
            vx, vy, vz = _velocity_on_grid(velocity, grid, t_mid, centers)
        c = c + dt * (D * lap - (vx * gx + vy * gy + vz * gz))
        t += dt
    return FdSolution(grid=grid, field=c, t_end=t, steps=n_steps)
