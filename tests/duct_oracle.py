"""The duct field as an explicit truncated image sum: the reference that
virodyne.channel's images-then-modes split is held to.

Each function sums the images of a duct y in [0, W], z in [0, H] image by
image, at an order chosen per call so that the dropped images weigh less
than 1e-15 of the sum (see `_reach`). It shares no code with the package:
its erfc is scipy's, and it knows nothing of modes or of the split age.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import erfcx

_BLOCK = 2 ** 16
_SPREADS = 6.5  # images within 6.5 spreads: erfc(6.5) ~ 4e-20


@lru_cache(maxsize=4)
def image_maps(width: float, height: float, order_y: int, order_z: int):
    """Flips and offsets (M, 3) of every image with at most order_y (y) and
    order_z (z) reflections per wall pair, identity first, then the
    (y sign, y offset, z sign, z offset) sweep in loop order. Read-only,
    as they are cached."""
    sy, ny, sz, nz = (a.ravel() for a in np.meshgrid(
        [1.0, -1.0], np.arange(-order_y, order_y + 1),
        [1.0, -1.0], np.arange(-order_z, order_z + 1), indexing="ij"))
    flips = np.column_stack([np.ones(sy.size), sy, sz])
    offsets = np.column_stack([np.zeros(sy.size), 2.0 * width * ny, 2.0 * height * nz])
    ident = np.flatnonzero((sy == 1.0) & (ny == 0) & (sz == 1.0) & (nz == 0))
    order = np.concatenate([ident, np.delete(np.arange(sy.size), ident)])
    flips, offsets = flips[order], offsets[order]
    flips.setflags(write=False)
    offsets.setflags(write=False)
    return flips, offsets


def _reach(diffusivity: float, wind: float, tau: float, dx: float) -> float:
    """Distance from the observer beyond which images are dropped. At a
    finite age an image 6.5 spreads sqrt(4 D tau) away weighs erfc(6.5) of
    one at the observer. In the windy steady state an image at transverse
    distance rho weighs exp(-|u| rho / 2D) against the near field."""
    if math.isinf(tau):
        return 2.0 * abs(dx) + 45.0 * 2.0 * diffusivity / abs(wind)
    return _SPREADS * math.sqrt(4.0 * diffusivity * tau)


def _order(length: float, reach: float) -> int:
    return int(math.ceil(reach / (2.0 * length))) + 1


def instant(width, height, diffusivity, wind, src, obs, tau) -> float:
    """Concentration per unit mass at age tau of a release at src, wind
    (wind, 0, 0): the x Gaussian times the y and z image sums."""
    if tau <= 0:
        return 0.0
    four_dt = 4.0 * diffusivity * tau
    src, obs = np.asarray(src, float), np.asarray(obs, float)
    factor = math.exp(-(obs[0] - src[0] - wind * tau) ** 2 / four_dt) / math.sqrt(math.pi * four_dt)
    reach = _SPREADS * math.sqrt(four_dt)
    for axis, length in ((1, width), (2, height)):
        n = np.arange(-_order(length, reach), _order(length, reach) + 1)
        images = np.concatenate([src[axis] + 2.0 * length * n, -src[axis] + 2.0 * length * n])
        factor *= (np.exp(-(obs[axis] - images) ** 2 / four_dt)
                   / math.sqrt(math.pi * four_dt)).sum()
    return float(factor)


def _image_kernel(dx, dy, dz, drift, diffusivity, tau):
    """Carslaw & Jaeger's continuous point source for each image offset
    (dx, dy, dz) in its drift v = (vx, vy, vz), and what it still lacks of
    its steady value, as (kernel, rest, y):
        kernel = exp((v . dr - |v| d) / 2D) / (8 pi D d) * [erfc(y) + exp(|v| d / D) erfc(x)],
        rest = exp((v . dr - |v| d) / 2D) / (8 pi D d) * [erfc(-y) - exp(|v| d / D) erfc(x)],
    y, x = (d -+ |v| tau) / 2 sqrt(D tau); rest is only kept where y < 0,
    past the image's peak. Each erfc is exp(-x^2) erfcx(x) with its
    exponential folded in: both terms carry exp(-|dr - v tau|^2 / 4 D tau),
    a sum of squares, and where v . dr > 0, |v| d - v . dr =
    |v x dr|^2 / (|v| d + v . dr), so no exponent is a difference of large
    numbers."""
    vx, vy, vz = drift
    d = np.sqrt(dx * dx + dy * dy + dz * dz)
    speed = np.sqrt(vx * vx + vy * vy + vz * vz)
    v_dot_dr = vx * dx + vy * dy + vz * dz
    cross2 = (vy * dz - vz * dy) ** 2 + (vz * dx - vx * dz) ** 2 + (vx * dy - vy * dx) ** 2
    ahead = v_dot_dr > 0.0
    gap = np.where(ahead, cross2 / np.where(ahead, speed * d + v_dot_dr, 1.0),
                   speed * d - v_dot_dr)
    upwind = np.exp(-gap / (2.0 * diffusivity))  # exp((v . dr - |v| d) / 2D)
    scale = 8.0 * math.pi * diffusivity * d
    if math.isinf(tau):
        return 2.0 * upwind / scale, np.zeros(d.size), -np.inf
    width = 2.0 * math.sqrt(diffusivity * tau)
    y = (d - speed * tau) / width
    x = (d + speed * tau) / width
    ox, oy, oz = dx - vx * tau, dy - vy * tau, dz - vz * tau
    damp = np.exp(-(ox * ox + oy * oy + oz * oz) / (4.0 * diffusivity * tau))
    near = damp * erfcx(np.abs(y))
    far = damp * erfcx(x)
    # erfc(y) = 2 - erfc(-y)
    return (np.where(y >= 0.0, near, 2.0 * upwind - near) + far) / scale, (near - far) / scale, y


def continuous(width, height, diffusivity, wind, src, obs, tau, tau_end=0.0,
               velocity=(0.0, 0.0, 0.0), order=None) -> float:
    """Concentration per unit rate of emission over ages [tau_end, tau]
    (tau may be inf) from a source that is at src at the observation time
    and moves at `velocity`, in the wind (wind, 0, 0): each image moves at
    flip * velocity and drifts at the wind less that. `order` fixes the
    reflections kept per wall pair; by default they reach past `_reach`."""
    if tau <= tau_end:
        return 0.0
    src, obs, vel = (np.asarray(v, float) for v in (src, obs, velocity))
    if order is None:
        reach = _reach(diffusivity, wind - vel[0], tau, obs[0] - src[0])
        order = (_order(width, reach), _order(height, reach))
    flips, offsets = image_maps(width, height, *order)
    total = 0.0
    for lo in range(0, len(flips), _BLOCK):
        flip = flips[lo:lo + _BLOCK].T
        dx, dy, dz = (obs[:, None] - (src[:, None] * flip + offsets[lo:lo + _BLOCK].T))
        drift = (wind - vel[0], -vel[1] * flip[1], -vel[2] * flip[2])
        kern, rest, _ = _image_kernel(dx, dy, dz, drift, diffusivity, tau)
        if tau_end > 0.0:
            # Past an image's peak the window is what the end still lacked
            # of the steady value less what the start lacks.
            kern_end, rest_end, y_end = _image_kernel(dx, dy, dz, drift, diffusivity, tau_end)
            kern = np.where(y_end < 0.0, rest_end - rest, kern - kern_end)
        total += float(kern.sum())
    return total
