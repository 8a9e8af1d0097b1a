"""Workload operations and the checks on their outputs.

An operation is one call the user would make: a `virodyne` CLI subcommand
run through `virodyne.cli.main`, or (for the fdpde layer, which the CLI
cannot reach) one call of `fdpde.solve_advection_diffusion`. Each operation
knows the files it writes, its unit of work and how to check its output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from inputs import Inputs

WORKLOADS = ("plume", "outbreak", "analysis")
THREADS = {"plume": "2", "outbreak": "1", "analysis": "1"}

# Named throughputs: (name, operations, work, unit). Work is "items" (the
# operations' own unit), "pass" (one per pass) or a key of Op.facts. Each
# is the summed work over the median summed time of its operations.
NAMED = {
    "plume": [
        ("static_field_pts_per_s", ("room", "duct"), "items", "pts/s"),
        ("moving_field_pts_per_s", ("walk",), "items", "pts/s"),
        ("fdpde_cell_steps_per_s", ("fdpde",), "items", "cell-steps/s"),
        ("room_pts_per_s", ("room",), "items", "pts/s"),
        ("duct_pts_per_s", ("duct",), "items", "pts/s"),
    ],
    "outbreak": [
        ("still_dose_evals_per_s", ("still",), "items", "evals/s"),
        ("windy_dose_evals_per_s", ("windy",), "items", "evals/s"),
        ("calm_dose_evals_per_s", ("calm",), "items", "evals/s"),
        ("still_agent_steps_per_s", ("still",), "agent_steps", "agent-steps/s"),
        ("windy_agent_steps_per_s", ("windy",), "agent_steps", "agent-steps/s"),
        ("calm_agent_steps_per_s", ("calm",), "agent_steps", "agent-steps/s"),
    ],
    "analysis": [
        ("detect_passes_per_s", ("ml_short", "ml_long", "threshold"), "pass", "1/s"),
        ("localize_per_s", ("localize_continuous", "localize_steady"), "items", "1/s"),
        ("residues_per_s", ("entropy", "hotspots", "direction"), "items", "residues/s"),
        ("ml_short_bits_per_s", ("ml_short",), "items", "bits/s"),
        ("ml_long_bits_per_s", ("ml_long",), "items", "bits/s"),
        ("threshold_bits_per_s", ("threshold",), "items", "bits/s"),
    ],
}

# End-to-end slots: every workload reports op1..op3 so that all workloads
# share metric names; each slot is one of the workload's named throughputs.
SLOTS = {w: tuple(entry[0] for entry in NAMED[w][:3]) for w in NAMED}


@dataclass
class Op:
    name: str
    run: Callable[[], int]       # returns an exit code
    outputs: list[str]
    check: Callable[["Op"], list[str]]
    items: float = 0.0           # work per call in its NAMED unit, set by the check
    facts: dict = field(default_factory=dict)  # values kept for the reference
    cli: bool = True             # False for a direct library call
    calibration: str = "scalar"  # calibrate.KERNELS key that tracks its cost

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in self.outputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


def cli_runner(argv: list[str]) -> Callable[[], int]:
    def run() -> int:
        from virodyne import cli
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    return run


def _csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(b), floor)


# ---------------------------------------------------------------------------
# plume
# ---------------------------------------------------------------------------

FIELD_SUBSAMPLE = 12
FIELD_REL_TOL = 1e-4     # two quadratures at rel 1e-6 each, plus summation


def _independent_field(cfg_path: str, rows: np.ndarray) -> np.ndarray:
    """Field at rows (x, y, z, t) by time quadrature of the instant kernel:
    each static continuous source becomes a moving source whose trajectory
    stands still."""
    from virodyne.channel import (SourceSpec, concentration_instant,
                                  concentration_moving_source)
    from virodyne.config import load_config
    from virodyne.mobility import Trajectory

    cfg = load_config(cfg_path)
    env = cfg.environment.build()
    out = np.zeros(len(rows))
    for i, (x, y, z, t) in enumerate(rows):
        for s in cfg.sources:
            if s.kind == "instant":
                out[i] += concentration_instant(s.build(t + 1.0), env, (x, y, z), t)
            else:
                traj = Trajectory.static(s.position_m, s.start_s, max(t, s.start_s + 1.0))
                spec = SourceSpec.continuous(s.rate_kgs, trajectory=traj,
                                             start_time=s.start_s)
                out[i] += concentration_moving_source(spec, env, (x, y, z), t)
    return out


def _field_check(cfg_path: str, expected_points: int, static: bool):
    def check(op: Op) -> list[str]:
        header, rows = _csv(op.outputs[0])
        if header != ["x", "y", "z", "t", "c"]:
            return [f"{op.name}: header {header}"]
        data = np.array(rows, dtype=float)
        errs = []
        if data.shape[0] != expected_points:
            errs.append(f"{op.name}: {data.shape[0]} rows, expected {expected_points}")
        c = data[:, 4]
        if not np.isfinite(c).all() or (c < 0).any() or not c.any():
            errs.append(f"{op.name}: concentration non-finite, negative or all zero")
        op.items = float(data.shape[0])
        idx = np.linspace(0, data.shape[0] - 1, FIELD_SUBSAMPLE).astype(int)
        op.facts = {"index": idx.tolist(), "c": c[idx].tolist(),
                    "sum": float(c.sum())}
        if static and not errs:
            ref = _independent_field(cfg_path, data[idx, :4])
            floor = 1e-9 * float(c.max())
            for i, a, b in zip(idx, c[idx], ref):
                if not _close(a, b, FIELD_REL_TOL, floor):
                    errs.append(f"{op.name}: point {i} gives {a!r}, quadrature "
                                f"route {b!r} (rel tol {FIELD_REL_TOL})")
        return errs
    return check


def _gust(base, amp, period, phase):
    base = np.asarray(base, dtype=float)

    def velocity(points: np.ndarray, t: float) -> np.ndarray:
        scale = 1.0 + amp * math.sin(2.0 * math.pi * t / period + phase)
        return np.broadcast_to(base * scale, points.shape)
    return velocity


def _fdpde_op(p: dict) -> Op:
    from virodyne import fdpde
    from virodyne.channel import SourceSpec

    grid = fdpde.FdGrid(lo=p["lo"], hi=p["hi"], shape=p["shape"])
    sources = [SourceSpec.continuous(p["rate"], position=p["source"]),
               SourceSpec.instant(p["puff"], p["puff_mass"], p["puff_start"])]
    velocity = _gust(p["base_wind"], p["gust_amp"], p["gust_period"],
                     p["gust_phase"])
    injected = p["rate"] * p["t_end"] + p["puff_mass"]
    holder: dict = {}

    def run() -> int:
        # Looked up on the module at call time, where a tracer may wrap it.
        holder["sol"] = fdpde.solve_advection_diffusion(
            grid, p["diffusivity"], velocity, sources, p["t_end"],
            dt=p["t_end"] / p["steps"], boundary="reflecting")
        return 0

    def check(op: Op) -> list[str]:
        sol = holder["sol"]
        errs = []
        if sol.steps != p["steps"]:
            errs.append(f"fdpde: {sol.steps} steps, expected {p['steps']}")
        if not np.isfinite(sol.field).all():
            errs.append("fdpde: non-finite field")
        mass = float(sol.field.sum()) * grid.cell_volume()
        # Reflecting walls conserve mass while the plume stays off them;
        # the hall is sized for that, and the tail that reaches a wall
        # moves the total by < 0.1%.
        if not _close(mass, injected, 0.005):
            errs.append(f"fdpde: mass {mass!r} vs injected {injected!r}")
        op.items = float(np.prod(p["shape"]) * sol.steps)
        op.facts = {"mass": mass, "c": sol.field.ravel()[::997].tolist()}
        return errs

    op = Op("fdpde", run, [], check, cli=False, calibration="array")
    op.digest = lambda: hashlib.sha256(holder["sol"].field.tobytes()).hexdigest()
    return op


def _cli_op(name: str, argv: list[str], outputs: list[str], check) -> Op:
    return Op(name, cli_runner(argv), outputs, check)


def plume_ops(inp: Inputs) -> list[Op]:
    f, d = inp.files, inp.workdir
    out = {k: os.path.join(d, f"{k}.csv") for k in ("room", "duct", "walk")}
    return [
        _cli_op("room", ["field", "--config", f["room"], "--out", out["room"]],
                [out["room"]], _field_check(f["room"], inp.facts["room_points"], True)),
        _cli_op("duct", ["field", "--config", f["duct"], "--out", out["duct"]],
                [out["duct"]], _field_check(f["duct"], inp.facts["duct_points"], True)),
        _cli_op("walk", ["field", "--config", f["walk"], "--speed", "2", "--time", "60",
                         "--out", out["walk"]],
                [out["walk"]], _field_check(f["walk"], inp.facts["walk_points"], False)),
        _fdpde_op(inp.facts["fdpde"]),
    ]


# ---------------------------------------------------------------------------
# outbreak
# ---------------------------------------------------------------------------

def _epidemic_check(cfg_path: str):
    def check(op: Op) -> list[str]:
        from virodyne.config import load_config

        cfg = load_config(cfg_path)
        n = cfg.population.n_agents
        samples = int(round(cfg.epidemic.step_s * cfg.population.breathing_hz)) + 1
        header, rows = _csv(op.outputs[0])
        summary = _json(op.outputs[1])
        errs = []
        if header != ["t", "agent_id", "state", "cumulative_dose"]:
            return [f"{op.name}: header {header}"]
        infected = np.array([r[2] == "I" for r in rows]).reshape(-1, n)
        dose = np.array([float(r[3]) for r in rows]).reshape(-1, n)
        counts = infected.sum(axis=1)
        if counts.tolist() != summary["infected_count"]:
            errs.append(f"{op.name}: series and summary disagree")
        if (np.diff(counts) < 0).any() or (infected[:-1] & ~infected[1:]).any():
            errs.append(f"{op.name}: an infected agent recovered")
        if not np.isfinite(dose).all() or (np.diff(dose, axis=0) < 0).any():
            errs.append(f"{op.name}: dose non-finite or decreasing")
        if not counts[0] < counts[-1] < n:
            errs.append(f"{op.name}: outbreak not growing at the horizon "
                        f"({counts[0]} -> {counts[-1]} of {n})")
        steps = counts.size - 1
        sus = n - counts[:-1]
        op.items = float((sus * counts[:-1]).sum() * samples)   # dose evaluations
        op.facts = {"infected_count": counts.tolist(),
                    "dose_sum": float(dose[-1].sum()),
                    "agent_steps": n * steps,
                    "susceptible_steps": int(sus.sum())}
        return errs
    return check


def outbreak_ops(inp: Inputs) -> list[Op]:
    ops = []
    for name in ("still", "windy", "calm"):
        series = os.path.join(inp.workdir, f"{name}_series.csv")
        summary = os.path.join(inp.workdir, f"{name}_summary.json")
        ops.append(_cli_op(name, ["epidemic", "--config", inp.files[name],
                                  "--out", series, "--summary", summary],
                           [series, summary], _epidemic_check(inp.files[name])))
    return ops


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

# With 2% noise and 12 sensors in a 3 m tall room the estimate can miss the
# generating source by ~2 m, mostly in height. What the localizer promises
# is to fit at least as well as the best point of its search grid.
LOCALIZE_TOL_M = 3.0
LOCALIZE_RATE_REL = 0.5
LOCALIZE_FIT_REL = 1e-6


def _detect_check(frames: int, bits: int):
    def check(op: Op) -> list[str]:
        r = _json(op.outputs[0])
        errs = []
        if r["bits_total"] != frames * bits or r["trials"] != frames:
            errs.append(f"{op.name}: {r['bits_total']} bits sent, expected "
                        f"{frames * bits}")
        lo, hi = r["ci"]
        if not 0.0 <= lo <= r["ber"] <= hi <= 1.0:
            errs.append(f"{op.name}: BER {r['ber']} outside Wilson interval {r['ci']}")
        if not 0.0 <= r["mi_bits"] <= 1.0 + 1e-12:
            errs.append(f"{op.name}: mutual information {r['mi_bits']}")
        op.items = float(r["bits_total"])
        op.facts = {"ber": r["ber"], "ci": r["ci"], "mi_bits": r["mi_bits"]}
        return errs
    return check


def _localize_check(truth: dict, kind: str):
    def check(op: Op) -> list[str]:
        r = _json(op.outputs[0])
        errs = []
        miss = math.dist(r["position"], truth["source"])
        if not r["converged"]:
            errs.append(f"{op.name}: simplex did not converge")
        fit = truth["grid_residual"][kind]
        if r["residual_norm"] > fit * (1.0 + LOCALIZE_FIT_REL):
            errs.append(f"{op.name}: residual {r['residual_norm']!r} exceeds the "
                        f"best grid point's {fit!r}")
        if miss > LOCALIZE_TOL_M:
            errs.append(f"{op.name}: estimate {miss:.3f} m from the source")
        if not _close(r["rate"], truth["rate"], LOCALIZE_RATE_REL):
            errs.append(f"{op.name}: rate {r['rate']} vs {truth['rate']}")
        op.items = 1.0
        op.facts = {"position": r["position"], "rate": r["rate"],
                    "iterations": r["iterations"]}
        return errs
    return check


def _entropy_check(residues: int, cols: int):
    def check(op: Op) -> list[str]:
        header, rows = _csv(op.outputs[0])
        ent = np.array([float(r[1]) for r in rows])
        errs = []
        if len(rows) != cols:
            errs.append(f"entropy: {len(rows)} positions, expected {cols}")
        if not (np.isfinite(ent) & (ent >= 0.0) & (ent <= 2.0)).all():
            errs.append("entropy: value outside [0, 2] bits")
        op.items = float(residues)
        op.facts = {"sum": float(ent.sum()), "head": ent[:20].tolist()}
        return errs
    return check


def _hotspot_check(residues: int, hot: list[int]):
    def check(op: Op) -> list[str]:
        spots = _json(op.outputs[0])["hotspots"]
        keys = [(-h["entropy_bits"], h["position"]) for h in spots]
        errs = []
        if keys != sorted(keys):
            errs.append("hotspots: not sorted by entropy, then position")
        if sorted(h["position"] for h in spots) != hot:
            errs.append("hotspots: top positions differ from the planted columns")
        op.items = float(residues)
        op.facts = {"positions": [h["position"] for h in spots],
                    "entropy": [h["entropy_bits"] for h in spots]}
        return errs
    return check


def _direction_check(residues: int):
    def check(op: Op) -> list[str]:
        targets = _json(op.outputs[0])["targets"]
        probs = [t["probability"] for t in targets]
        errs = []
        if not probs or not all(math.isfinite(p) and p >= 0.0 for p in probs):
            errs.append("direction: probabilities not finite and >= 0")
        if probs != sorted(probs, reverse=True):
            errs.append("direction: targets not ranked")
        op.items = float(residues)
        op.facts = {"targets": [[t["state"], t["probability"]] for t in targets]}
        return errs
    return check


def analysis_ops(inp: Inputs) -> list[Op]:
    f, d = inp.files, inp.workdir
    ops = []
    for name, (frames, bits) in inp.facts["detect_frames"].items():
        out = os.path.join(d, f"{name}.json")
        ops.append(_cli_op(name, ["detect", "--config", f[name], "--out", out],
                           [out], _detect_check(frames, bits)))
    for kind in ("continuous", "steady"):
        out = os.path.join(d, f"localize_{kind}.json")
        ops.append(_cli_op(f"localize_{kind}",
                           ["localize", "--config", f[f"localize_{kind}"],
                            "--readings", f[f"readings_{kind}"], "--out", out],
                           [out], _localize_check(inp.facts["localize"], kind)))
    fa = inp.facts["fasta"]
    residues = fa["rows"] * fa["cols"]
    ent, hot, dirn = (os.path.join(d, n) for n in
                      ("entropy.csv", "hotspots.json", "direction.json"))
    ops.append(_cli_op("entropy", ["entropy", "--fasta", f["fasta"], "--out", ent],
                       [ent], _entropy_check(residues, fa["cols"])))
    ops.append(_cli_op("hotspots", ["hotspots", "--fasta", f["fasta"], "--top",
                                    str(len(fa["hot"])), "--out", hot],
                       [hot], _hotspot_check(residues, fa["hot"])))
    ops.append(_cli_op("direction", ["direction", "--fasta", f["fasta"], "--position",
                                     str(inp.facts["direction_position"]),
                                     "--q", "1e-3", "--gamma", "0.5", "--out", dirn],
                       [dirn], _direction_check(residues)))
    return ops


BUILD_OPS = {"plume": plume_ops, "outbreak": outbreak_ops, "analysis": analysis_ops}
