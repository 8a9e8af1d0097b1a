"""Seeded input generator for the benchmark workloads.

Every input the program sees (scenario configs, the readings CSV, the FASTA
alignment and the fdpde problem) is a pure function of (workload, seed).
Sizes and geometry are fixed per workload; the seed moves strengths, taps,
noise, populations and sequence content, so the work per pass stays nearly
the same across seeds.
The generator never calls the program: readings use the closed-form
still-air kernels written out here.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOAD_INDEX = {"plume": 1, "outbreak": 2, "analysis": 3}
# Static source positions, the second source's start and the sensor layout
# come from this fixed stream: quadrature depth and the simplex path depend
# on them, and drawing them per seed moved a seed's cost by about 8%. The
# seed still moves every strength, the puff, the noise, the populations
# and the sequences, so each seed gives new outputs to check.
GEOMETRY_SEED = 0

# Problem sizes, in one place.
ROOM_GRID = (16, 16, 9)          # windy half-space room, 2304 pts: 2 chunks
ROOM_AXES = ((0.25, 19.75), (0.25, 14.75), (0.3, 2.7))
DUCT_GRID = (12, 5, 5)           # windy duct, 300 pts
WALK_GRID = (4, 4, 101)          # walk-past plane stack, 1616 pts
FDPDE_SHAPE = (40, 30, 8)        # 9600 cells
FDPDE_T_END = 40.0
FDPDE_STEPS = 800
# Index cases near half the population: the work, sum of susceptibles x
# infected per step, is flat around n/2, so it barely moves with the draws
# while the outbreak still grows.
STILL_AGENTS, STILL_INDEX, STILL_HORIZON, STILL_K = 40, 16, 50.0, 3e3
WINDY_AGENTS, WINDY_INDEX, WINDY_HORIZON, WINDY_K = 24, 10, 30.0, 2e5
# The windy crowd gets an 80 x 30 m hall: a susceptible breathing within
# centimetres of a source sends the quadrature 15+ levels deep (+15 MB peak
# memory), and a sparse crowd makes that rare enough not to decide the
# peak-memory figure of most seeds.
WINDY_HALL = (80.0, 30.0)
ML_SHORT_FRAMES = 4              # 16-bit frames, exhaustive ML today
ML_LONG_FRAMES = 80              # 64-bit frames, Viterbi today
THRESHOLD_FRAMES = 60000         # 64-bit frames
LOCALIZE_GRID = 12
N_SENSORS = 12
FASTA_ROWS, FASTA_COLS, HOT_COLUMNS = 120, 3000, 30


@dataclass
class Inputs:
    """Generated files plus the facts the checks need about them."""

    workdir: str
    files: dict[str, str] = field(default_factory=dict)     # role -> path
    facts: dict[str, object] = field(default_factory=dict)  # generator truth

    def write(self, role: str, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        self.files[role] = path
        return path

    def manifest(self) -> dict[str, dict[str, object]]:
        """Size and sha256 of every generated file, by role."""
        out = {}
        for role, path in sorted(self.files.items()):
            with open(path, "rb") as fh:
                data = fh.read()
            out[role] = {"bytes": len(data),
                         "sha256": hashlib.sha256(data).hexdigest()}
        return out


def _cfg(sections: list[tuple[str, dict[str, object]]]) -> str:
    lines = []
    for name, keys in sections:
        lines.append(f"[{name}]")
        for k, v in keys.items():
            if isinstance(v, (tuple, list)):
                v = " ".join(repr(float(x)) if isinstance(x, float) else str(x)
                             for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{k} = {v}")
        lines.append("")
    return "\n".join(lines)


def _r(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(f"{rng.uniform(lo, hi):.5g}")


# ---------------------------------------------------------------------------
# plume
# ---------------------------------------------------------------------------

def _cell_centre(rng: np.random.Generator, box) -> tuple[float, ...]:
    """A point near the centre of a random room-grid cell inside `box`
    ((lo, hi) per axis). Static sources sit there, at least ~0.7 m from
    every grid point: a point within centimetres of a source sends the
    quadrature 15+ levels deep, and that one point would then decide the
    seed's time and peak memory."""
    out = []
    for (a, b), n, (lo, hi) in zip(ROOM_AXES, ROOM_GRID, box):
        h = (b - a) / (n - 1)
        k = int(rng.integers(math.ceil((lo - a) / h), math.floor((hi - a) / h)))
        out.append(float(f"{a + (k + 0.5 + rng.uniform(-0.1, 0.1)) * h:.5g}"))
    return tuple(out)


def _plume(rng: np.random.Generator, geom: np.random.Generator, inp: Inputs,
           seed: int) -> None:
    nx, ny, nz = ROOM_GRID
    s1 = _cell_centre(geom, ((3, 8), (3, 12), (0.8, 1.8)))
    s2 = _cell_centre(geom, ((9, 15), (3, 12), (0.8, 1.8)))
    puff = (_r(rng, 4, 14), _r(rng, 4, 11), _r(rng, 1.0, 2.0))
    inp.write("room", "room.cfg", _cfg([
        ("environment", {"diffusivity_m2s": 0.5, "wind_mps": (0.3, 0.1, 0.0),
                         "boundary": "halfspace"}),
        ("source", {"kind": "continuous", "position_m": s1,
                    "rate_kgs": _r(rng, 0.5e-6, 1.5e-6)}),
        ("source", {"kind": "continuous", "position_m": s2,
                    "rate_kgs": _r(rng, 0.5e-6, 1.5e-6),
                    "start_s": _r(geom, 30, 60)}),
        ("source", {"kind": "instant", "position_m": puff,
                    "mass_kg": _r(rng, 1e-5, 3e-5), "start_s": _r(rng, 10, 40)}),
        ("grid", {"x_m": (*ROOM_AXES[0], nx), "y_m": (*ROOM_AXES[1], ny),
                  "z_m": (*ROOM_AXES[2], nz), "times_s": 120.0}),
        ("run", {"seed": seed}),
    ]))
    inp.facts["room_points"] = nx * ny * nz

    dx, dy, dz = DUCT_GRID
    inp.write("duct", "duct.cfg", _cfg([
        ("environment", {"diffusivity_m2s": 0.5, "wind_mps": (0.5, 0.0, 0.0),
                         "boundary": "duct", "duct_width_m": 3.0,
                         "duct_height_m": 2.5, "image_order": 10}),
        ("source", {"kind": "continuous",
                    "position_m": (0.0, _r(geom, 0.6, 2.4), _r(geom, 0.6, 1.9)),
                    "rate_kgs": _r(rng, 0.5e-6, 1.5e-6)}),
        ("grid", {"x_m": (1.0, 20.0, dx), "y_m": (0.2, 2.8, dy),
                  "z_m": (0.2, 2.3, dz), "times_s": 60.0}),
        ("run", {"seed": seed}),
    ]))
    inp.facts["duct_points"] = dx * dy * dz

    wx, wy, wz = WALK_GRID
    inp.write("walk", "walk.cfg", _cfg([
        ("environment", {"diffusivity_m2s": 40.0}),
        ("source", {"kind": "continuous",
                    "position_m": (0.0, _r(geom, -1, 1), _r(geom, 20, 30)),
                    "rate_kgs": _r(rng, 0.5, 1.5)}),
        ("grid", {"x_m": (30.0, 40.0, wx), "y_m": (-4.0, 4.0, wy),
                  "z_m": (0.0, 50.0, wz), "times_s": 30.0}),
        ("run", {"seed": seed}),
    ]))
    inp.facts["walk_points"] = wx * wy * wz

    inp.facts["fdpde"] = {
        # a hall large enough that the plume stays inside: mass is conserved
        "lo": (0.0, 0.0, 0.0), "hi": (60.0, 45.0, 3.0), "shape": FDPDE_SHAPE,
        "diffusivity": 0.5, "t_end": FDPDE_T_END, "steps": FDPDE_STEPS,
        "base_wind": (0.3, 0.1, 0.0), "gust_amp": 0.5,
        "gust_period": 8.0, "gust_phase": _r(rng, 0.0, 2 * math.pi),
        "source": (_r(rng, 12, 20), _r(rng, 14, 22), _r(rng, 0.8, 2.2)),
        "rate": _r(rng, 0.5e-6, 1.5e-6),
        "puff": (_r(rng, 12, 20), _r(rng, 14, 22), _r(rng, 0.8, 2.2)),
        "puff_mass": _r(rng, 1e-5, 3e-5), "puff_start": _r(rng, 1, 5),
    }


# ---------------------------------------------------------------------------
# outbreak
# ---------------------------------------------------------------------------

def _epidemic_cfg(n: int, index: int, hall: tuple[float, float], wind, k: float,
                  horizon: float, seed: int) -> str:
    return _cfg([
        ("environment", {"diffusivity_m2s": 0.5, "wind_mps": wind}),
        ("population", {"n_agents": n, "initial_infected": index,
                        "domain_m": (0.0, 0.0, 0.0, *hall, 3.0),
                        "emission_rate_kgs": 1e-5, "breathing_hz": 1.0,
                        "mobility": "waypoint", "speed_min_mps": 0.5,
                        "speed_max_mps": 1.5, "pause_s": 2.0}),
        ("epidemic", {"dose_coefficient": k, "latency_s": 0.0,
                      "step_s": 10.0, "horizon_s": horizon}),
        ("run", {"seed": seed}),
    ])


def _outbreak(rng: np.random.Generator, geom: np.random.Generator, inp: Inputs,
              seed: int) -> None:
    run_seed = int(rng.integers(1, 2**31 - 1))
    inp.write("still", "still.cfg", _epidemic_cfg(
        STILL_AGENTS, STILL_INDEX, (20.0, 15.0), (0.0, 0.0, 0.0), STILL_K, STILL_HORIZON,
        run_seed))
    # windy and calm share a population, so their ratio is the cost of wind
    for role, wind in (("windy", (0.3, 0.1, 0.0)), ("calm", (0.0, 0.0, 0.0))):
        inp.write(role, f"{role}.cfg", _epidemic_cfg(
            WINDY_AGENTS, WINDY_INDEX, WINDY_HALL, wind, WINDY_K, WINDY_HORIZON,
            run_seed))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _detect_cfg(keys: dict[str, object], seed: int) -> str:
    return _cfg([("detection", keys), ("run", {"seed": seed})])


def _steady_kernel(d: np.ndarray, diffusivity: float) -> np.ndarray:
    return 1.0 / (4.0 * math.pi * diffusivity * d)


_erfc = np.vectorize(math.erfc)


def _continuous_kernel(d: np.ndarray, diffusivity: float, tau: float) -> np.ndarray:
    return _steady_kernel(d, diffusivity) * _erfc(d / (2.0 * math.sqrt(diffusivity * tau)))


def _grid_residual(sensors: np.ndarray, y: np.ndarray, sigma: np.ndarray,
                   kernel, lo: np.ndarray, hi: np.ndarray) -> float:
    """Smallest weighted residual norm over the localizer's search grid,
    with the rate profiled out (clamped at 0) as the localizer does. The
    localizer refines from the best grid point, so it must do at least as
    well."""
    axes = [np.linspace(lo[k], hi[k], LOCALIZE_GRID) for k in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    g = kernel(np.linalg.norm(grid[:, None, :] - sensors[None, :, :], axis=2))
    w = 1.0 / sigma**2
    q = np.maximum((w * y * g).sum(axis=1) / (w * g * g).sum(axis=1), 0.0)
    return math.sqrt(float((w * (y - q[:, None] * g) ** 2).sum(axis=1).min()))


def _readings(sensors: np.ndarray, t: float, unit: np.ndarray, rate: float,
              rng: np.random.Generator) -> tuple[str, np.ndarray, np.ndarray]:
    """Readings CSV with 2% noise from a source of `rate` whose per-unit-rate
    field at the sensors is `unit`; also the noisy values and their sigmas."""
    conc = rate * unit
    sigma = 0.02 * conc
    noisy = conc + sigma * rng.standard_normal(conc.size)
    rows = ["x,y,z,t,c,sigma"]
    for p, c, sd in zip(sensors, noisy, sigma):
        rows.append(",".join(repr(float(v)) for v in (*p, t, c, sd)))
    return "\n".join(rows) + "\n", noisy, sigma


def _fasta(rng: np.random.Generator) -> tuple[str, list[int]]:
    n, length = FASTA_ROWS, FASTA_COLS
    consensus = rng.integers(0, 4, size=length)
    codes = np.tile(consensus, (n, 1))
    # Background: 1% point mutations; planted hot columns: uniform residues.
    mutate = rng.uniform(size=(n, length)) < 0.01
    codes[mutate] = rng.integers(0, 4, size=int(mutate.sum()))
    hot = np.sort(rng.choice(length, size=HOT_COLUMNS, replace=False))
    codes[:, hot] = rng.integers(0, 4, size=(n, HOT_COLUMNS))
    letters = np.array(list("ACGT"))[codes]
    # Gaps and ambiguity codes, never enough to empty a column.
    letters[rng.uniform(size=(n, length)) < 0.005] = "-"
    letters[rng.uniform(size=(n, length)) < 0.003] = "N"
    out = []
    for i in range(n):
        out.append(f">seq{i:04d}")
        row = "".join(letters[i])
        out.extend(row[j:j + 70] for j in range(0, length, 70))
    return "\n".join(out) + "\n", [int(h) + 1 for h in hot]


def _analysis(rng: np.random.Generator, geom: np.random.Generator, inp: Inputs,
              seed: int) -> None:
    inp.write("ml_short", "ml_short.cfg", _detect_cfg({
        "taps": (1.0, _r(rng, 0.4, 0.6), _r(rng, 0.15, 0.25)),
        "noise": "poisson", "alpha": 4.0, "mode": "sequence",
        "bits_per_frame": 16, "trials": ML_SHORT_FRAMES}, seed))
    inp.write("ml_long", "ml_long.cfg", _detect_cfg({
        "taps": (1.0, _r(rng, 0.5, 0.7), _r(rng, 0.25, 0.35), _r(rng, 0.08, 0.12)),
        "noise": "gaussian", "sigma": 0.4, "mode": "sequence",
        "bits_per_frame": 64, "trials": ML_LONG_FRAMES}, seed))
    inp.write("threshold", "threshold.cfg", _detect_cfg({
        "taps": (1.0, _r(rng, 0.2, 0.4)), "noise": "gaussian", "sigma": 0.35,
        "mode": "threshold", "bits_per_frame": 64,
        "trials": THRESHOLD_FRAMES}, seed))
    inp.facts["detect_frames"] = {"ml_short": (ML_SHORT_FRAMES, 16),
                                  "ml_long": (ML_LONG_FRAMES, 64),
                                  "threshold": (THRESHOLD_FRAMES, 64)}

    diffusivity = 0.5
    lo, hi = np.array([0.0, 0.0, 0.0]), np.array([20.0, 15.0, 3.0])
    sensors = np.round(lo + geom.uniform(size=(N_SENSORS, 3)) * (hi - lo), 3)
    source = np.round(lo + [4, 3, 0.8] + geom.uniform(size=3) * [12, 9, 1.4], 3)
    rate = 1e-5
    d = np.linalg.norm(sensors - source, axis=1)
    t_obs = 600.0
    kernels = {"continuous": (t_obs, lambda r: _continuous_kernel(r, diffusivity, t_obs)),
               "steady": (0.0, lambda r: _steady_kernel(r, diffusivity))}
    grid_residual = {}
    for kind, (t, kernel) in kernels.items():
        text, y, sigma = _readings(sensors, t, kernel(d), rate, rng)
        inp.write(f"readings_{kind}", f"readings_{kind}.csv", text)
        grid_residual[kind] = _grid_residual(sensors, y, sigma, kernel, lo, hi)
    for kind in ("continuous", "steady"):
        inp.write(f"localize_{kind}", f"localize_{kind}.cfg", _cfg([
            ("environment", {"diffusivity_m2s": diffusivity}),
            ("localize", {"source_kind": kind, "grid_resolution": LOCALIZE_GRID,
                          "search_box_m": (0.0, 0.0, 0.0, 20.0, 15.0, 3.0)}),
        ]))
    inp.facts["localize"] = {"source": source.tolist(), "rate": rate,
                             "grid_residual": grid_residual}

    text, hot = _fasta(rng)
    inp.write("fasta", "alignment.fasta", text)
    inp.facts["fasta"] = {"rows": FASTA_ROWS, "cols": FASTA_COLS, "hot": hot}
    # Direction query: the codon holding the first planted hot column.
    inp.facts["direction_position"] = (hot[0] - 1) // 3 + 1


_BUILDERS = {"plume": _plume, "outbreak": _outbreak, "analysis": _analysis}


def generate(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the workload's inputs for `seed` into `workdir`."""
    rng = np.random.default_rng([seed, WORKLOAD_INDEX[workload]])
    geom = np.random.default_rng([GEOMETRY_SEED, WORKLOAD_INDEX[workload]])
    inp = Inputs(workdir=workdir)
    _BUILDERS[workload](rng, geom, inp, seed)
    return inp
