"""Per-layer instrumentation: which program functions get a span, and how
the spans of one traced pass become the per-layer metrics.

Layers are the program's modules. Wrappers sit on the names each caller
looks up: `virodyne.cli` imports most layer entry points into its own
namespace, `epidemic` and `localization` import their channel kernels, and
class methods are wrapped on the class.
"""

from __future__ import annotations

import os
import time

import numpy as np

from tracer import Span, Tracer, self_times


def _epidemic_note(args, kwargs, state) -> dict:
    agents, cfg = args[0], args[1]
    samples = max(1, int(round(cfg.step * agents[0].breathing_rate))) + 1
    counts = [snap.infected_count for snap in state.snapshots]
    n = len(agents)
    sus = [n - c for c in counts[:-1]]
    return {"steps": len(counts) - 1, "susceptible_steps": sum(sus),
            "dose_evals": sum(s * c * samples for s, c in zip(sus, counts[:-1])),
            "final_infected": counts[-1]}


def _detect_note(args, kwargs, result) -> dict:
    from virodyne import detection

    frame, cir, config = args[:3]
    mem = cir.memory - 1
    n_bits = frame.samples.size - mem
    if not isinstance(config.mode, detection.SequenceML) or n_bits <= 0:
        return {}
    # Exhaustive ML scores every candidate frame; Viterbi visits every
    # (state, branch) pair of every sample.
    if n_bits <= getattr(detection, "_EXHAUSTIVE_LIMIT", 0):
        return {"candidates": 2 ** n_bits}
    return {"trellis_state_steps": (n_bits + mem) * (2 ** mem) * 2}


def _ber_note(args, kwargs, est) -> dict:
    joint = sum(sum(row) for row in est.joint)
    return {"trials": est.trials, "joint_ok": joint == est.bits_total}


def _fdpde_note(args, kwargs, sol) -> dict:
    velocity = args[2]
    return {"steps": sol.steps, "cells": int(np.prod(sol.grid.shape)),
            "callable_velocity": callable(velocity)}


def _write_note(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> None:
    from virodyne import (channel, cli, detection, epidemic, fdpde, localization,
                          mobility, parallel)

    w = tracer.wrap
    w(cli, "load_config", "config.load")
    w(channel.FieldQuery, "from_grid", "channel.from_grid")
    w(cli, "evaluate_field", "channel.evaluate_field", lambda a, k, r: {
        "points": len(a[0]),
        "images": len(channel.image_transforms(a[1].environment))})
    w(channel, "concentration_continuous", "channel.continuous", lambda a, k, r: {
        "moving": a[0].is_moving, "wind": a[1].has_wind})
    w(channel, "adaptive_emission_integral", "channel.quadrature")
    w(epidemic, "continuous_point_concentration", "channel.point_kernel")
    w(localization, "concentration_steady", "channel.point_kernel")
    w(localization, "concentration_instant", "channel.point_kernel")
    w(localization, "steady_kernel_batch", "channel.steady_batch")
    w(fdpde, "solve_advection_diffusion", "fdpde.solve", _fdpde_note)
    w(cli, "sample_trajectory", "mobility.sample",
      lambda a, k, r: {"knots": int(r.times.size)})
    w(mobility.Trajectory, "point_at", "mobility.point_at")
    w(cli, "run_epidemic", "epidemic.run", _epidemic_note)
    w(epidemic, "accumulate_dose", "epidemic.accumulate_dose")
    w(parallel, "map_chunks", "parallel.map_chunks", lambda a, k, r: {
        "chunks": len(r)}, propagate=True)
    w(cli, "error_probability", "detection.error_probability", _ber_note)
    w(detection, "detect", "detection.detect", _detect_note)
    w(cli, "localize", "localization.localize", lambda a, k, r: {
        "iterations": r.iterations, "converged": bool(r.converged),
        "grid_points": k["config"].grid_resolution ** 3})
    w(cli, "parse_fasta", "seqstat.parse")
    w(cli, "build_alignment", "seqstat.build", lambda a, k, r: {
        "residues": r.n_sequences * r.length})
    w(cli, "positional_entropy", "seqstat.entropy")
    w(cli, "select_hotspots", "seqstat.hotspots")
    w(cli, "mutation_direction", "mutation.direction")
    w(cli, "write_csv", "fileio.write", _write_note)
    w(cli, "write_json", "fileio.write", _write_note)


# name -> (unit, better). Times are seconds summed over one pass; counts
# are exact and repeat between passes.
PER_LAYER = {
    "config.load_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "channel.from_grid_s": ("s", "lower"),
    "channel.static_s_per_point": ("s", "lower"),
    "channel.moving_s_per_point": ("s", "lower"),
    "channel.continuous_still_s_per_call": ("s", "lower"),
    "channel.continuous_windy_s_per_call": ("s", "lower"),
    "channel.points": ("count", "higher"),
    "channel.images": ("count", "lower"),
    "channel.quadrature_calls": ("count", "lower"),
    "channel.quadrature_s": ("s", "lower"),
    "channel.point_kernel_calls": ("count", "lower"),
    "channel.point_kernel_s": ("s", "lower"),
    "channel.steady_batch_s": ("s", "lower"),
    "channel.failures": ("count", "lower"),
    "fdpde.steps": ("count", "lower"),
    "fdpde.cells": ("count", "higher"),
    "fdpde.s_per_cell_step": ("s", "lower"),
    "fdpde.bytes_per_step_computed": ("B", "lower"),
    "mobility.sample_s": ("s", "lower"),
    "mobility.knots": ("count", "lower"),
    "mobility.point_at_calls": ("count", "lower"),
    "mobility.point_at_s": ("s", "lower"),
    "epidemic.run_s": ("s", "lower"),
    "epidemic.self_s": ("s", "lower"),
    "epidemic.steps": ("count", "higher"),
    "epidemic.susceptible_steps": ("count", "higher"),
    "epidemic.dose_evals": ("count", "higher"),
    "epidemic.final_infected": ("count", "higher"),
    "parallel.map_calls": ("count", "lower"),
    "parallel.chunks": ("count", "lower"),
    "parallel.map_s": ("s", "lower"),
    "parallel.field_speedup_2t": ("ratio", "higher"),
    "detection.ml_short_s_per_frame": ("s", "lower"),
    "detection.ml_long_s_per_frame": ("s", "lower"),
    "detection.threshold_s_per_frame": ("s", "lower"),
    "detection.detect_calls": ("count", "lower"),
    "detection.candidates": ("count", "lower"),
    "detection.trellis_state_steps": ("count", "lower"),
    "localization.localize_s": ("s", "lower"),
    "localization.grid_points": ("count", "higher"),
    "localization.simplex_iterations": ("count", "lower"),
    "localization.converged": ("count", "higher"),
    "seqstat.parse_s": ("s", "lower"),
    "seqstat.build_s": ("s", "lower"),
    "seqstat.entropy_s": ("s", "lower"),
    "seqstat.hotspots_s": ("s", "lower"),
    "seqstat.residues": ("count", "higher"),
    "mutation.direction_s": ("s", "lower"),
    "fileio.write_s": ("s", "lower"),
    "fileio.bytes_written": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "design.src_lines": ("count", "lower"),
}

# Metrics that must repeat exactly between two traced passes.
COUNTS = [k for k, (unit, _) in PER_LAYER.items() if unit in ("count", "B")
          and k != "design.src_lines"]

# Whole-grid float64 arrays one explicit fdpde step reads or writes, as the
# solver is written: c, the padded copy (write + read), the Laplacian
# (write + read), three gradients (write + read), three velocity components
# (read; also written when the velocity is a callable) and the new c.
_FDPDE_ARRAYS = 1 + 2 + 2 + 6 + 3 + 1


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but the overhead,
    the 2-thread speed-up and the line count, which the caller adds)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def get(name: str) -> list[Span]:
        return named.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in get(name))

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in get(name)))

    def under(span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            anc = by_id.get(p)
            if anc is None:
                return False
            if anc.name == name:
                return True
            p = anc.parent
        return False

    m: dict[str, float] = {}
    m["config.load_s"] = total("config.load")
    m["cli.self_s"] = sum(own[s.id] for s in get("cli.main"))
    m["channel.from_grid_s"] = total("channel.from_grid")

    cont = get("channel.continuous")
    batch = [s for s in cont if under(s, "channel.evaluate_field")]
    static = [s.duration for s in batch if not s.attrs.get("moving")]
    moving = [s.duration for s in batch if s.attrs.get("moving")]
    m["channel.static_s_per_point"] = _per(sum(static), len(static))
    m["channel.moving_s_per_point"] = _per(sum(moving), len(moving))
    still = [s.duration for s in cont if not s.attrs.get("moving") and not s.attrs.get("wind")]
    windy = [s.duration for s in cont if not s.attrs.get("moving") and s.attrs.get("wind")]
    m["channel.continuous_still_s_per_call"] = _per(sum(still), len(still))
    m["channel.continuous_windy_s_per_call"] = _per(sum(windy), len(windy))
    m["channel.points"] = attr_sum("channel.evaluate_field", "points")
    m["channel.images"] = attr_sum("channel.evaluate_field", "images")
    m["channel.quadrature_calls"] = float(len(get("channel.quadrature")))
    m["channel.quadrature_s"] = total("channel.quadrature")
    point = get("channel.point_kernel") + [
        s for s in cont if under(s, "localization.localize")]
    m["channel.point_kernel_calls"] = float(len(point))
    m["channel.point_kernel_s"] = sum(s.duration for s in point)
    m["channel.steady_batch_s"] = total("channel.steady_batch")
    m["channel.failures"] = float(sum(1 for s in spans if s.layer == "channel"
                                      and "error" in s.attrs))

    steps, cells = attr_sum("fdpde.solve", "steps"), attr_sum("fdpde.solve", "cells")
    m["fdpde.steps"] = steps
    m["fdpde.cells"] = cells
    cell_steps = sum(s.attrs.get("steps", 0) * s.attrs.get("cells", 0)
                     for s in get("fdpde.solve"))
    m["fdpde.s_per_cell_step"] = _per(total("fdpde.solve"), cell_steps)
    m["fdpde.bytes_per_step_computed"] = float(sum(
        8 * s.attrs["cells"] * (_FDPDE_ARRAYS + (3 if s.attrs["callable_velocity"] else 0))
        for s in get("fdpde.solve") if "cells" in s.attrs))

    m["mobility.sample_s"] = total("mobility.sample")
    m["mobility.knots"] = attr_sum("mobility.sample", "knots")
    m["mobility.point_at_calls"] = float(len(get("mobility.point_at")))
    m["mobility.point_at_s"] = total("mobility.point_at")

    m["epidemic.run_s"] = total("epidemic.run")
    m["epidemic.self_s"] = sum(own[s.id] for s in spans if s.layer == "epidemic")
    for key in ("steps", "susceptible_steps", "dose_evals", "final_infected"):
        m[f"epidemic.{key}"] = attr_sum("epidemic.run", key)

    m["parallel.map_calls"] = float(len(get("parallel.map_chunks")))
    m["parallel.chunks"] = attr_sum("parallel.map_chunks", "chunks")
    m["parallel.map_s"] = total("parallel.map_chunks")

    for op in ("ml_short", "ml_long", "threshold"):
        ber = [s for s in get("detection.error_probability") if s.attrs.get("op") == op]
        m[f"detection.{op}_s_per_frame"] = _per(
            sum(s.duration for s in ber), sum(s.attrs.get("trials", 0) for s in ber))
    m["detection.detect_calls"] = float(len(get("detection.detect")))
    m["detection.candidates"] = attr_sum("detection.detect", "candidates")
    m["detection.trellis_state_steps"] = attr_sum("detection.detect",
                                                  "trellis_state_steps")

    m["localization.localize_s"] = total("localization.localize")
    m["localization.grid_points"] = attr_sum("localization.localize", "grid_points")
    m["localization.simplex_iterations"] = attr_sum("localization.localize", "iterations")
    m["localization.converged"] = attr_sum("localization.localize", "converged")

    m["seqstat.parse_s"] = total("seqstat.parse")
    m["seqstat.build_s"] = total("seqstat.build")
    m["seqstat.entropy_s"] = total("seqstat.entropy")
    m["seqstat.hotspots_s"] = total("seqstat.hotspots")
    m["seqstat.residues"] = attr_sum("seqstat.build", "residues")
    m["mutation.direction_s"] = total("mutation.direction")
    m["fileio.write_s"] = total("fileio.write")
    m["fileio.bytes_written"] = attr_sum("fileio.write", "bytes")
    return m


def check_spans(spans: list[Span]) -> list[str]:
    """Output checks only a traced pass can make."""
    return [f"{s.attrs.get('op')}: BER joint table does not sum to the bits sent"
            for s in spans if s.name == "detection.error_probability"
            and s.attrs.get("joint_ok") is False]


def field_speedup(room_cfg: str, reps: int = 2) -> float:
    """Time of evaluate_field at 1 thread over its time at 2 threads, on
    the room scenario built the way the CLI builds it."""
    from virodyne import channel, config

    cfg = config.load_config(room_cfg)
    env = cfg.environment.build()
    times = list(cfg.grid.times_s)
    sources = [s.build(max(times) + 1.0) for s in cfg.sources]
    query = channel.FieldQuery.from_grid(*cfg.grid.axes(), times)
    scenario = channel.Scenario(env, sources)
    saved = os.environ.get("VIRODYNE_THREADS")
    samples: dict[str, list[float]] = {"1": [], "2": []}
    try:
        for _ in range(reps):
            for n in ("1", "2"):
                os.environ["VIRODYNE_THREADS"] = n
                t0 = time.perf_counter()
                channel.evaluate_field(query, scenario,
                                       quadrature_tol=cfg.solver.quadrature_tol)
                samples[n].append(time.perf_counter() - t0)
    finally:
        if saved is None:
            os.environ.pop("VIRODYNE_THREADS", None)
        else:
            os.environ["VIRODYNE_THREADS"] = saved
    return float(np.median(samples["1"]) / np.median(samples["2"]))


def src_lines(src_dir: str) -> int:
    """Net line count of the program's Python sources."""
    n = 0
    for dirpath, _, files in os.walk(src_dir):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    n += fh.read().count(b"\n")
    return n

