"""Command-line front end.

Subcommands:
  field      evaluate a concentration grid and export it as CSV
  epidemic   run the agent-based SI simulation, export the time series
  detect     Monte-Carlo OOK detection metrics (BER, mutual information)
  localize   estimate source position/intensity from a readings CSV
  entropy    per-position Shannon entropy profile of a FASTA alignment
  hotspots   ranked high-entropy positions of a FASTA alignment
  direction  ranked mutation targets for one alignment position

Exit codes: 0 success, 1 domain error (degenerate data, failed estimation),
2 usage error (unknown flags, malformed or missing configuration). Identical
inputs and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .channel import FieldQuery, Scenario, evaluate_field
from .config import LocalizeSection, ScenarioConfig, config_hash, load_config
from .core import AMINO_NAMES, rng_stream
from .detection import (
    ChannelImpulseResponse,
    DetectorConfig,
    GaussianNoise,
    NonCoherentDifference,
    PoissonNoise,
    SequenceML,
    SymbolThreshold,
    error_probability,
    mutual_information,
)
from .epidemic import Agent, EpidemicConfig, run as run_epidemic
from .errors import ConfigError, VirodyneError
from .fileio import format_float, read_readings_csv, write_csv, write_json
from .localization import SolverConfig, localize
from .mobility import (
    BoundaryPolicy,
    Box,
    MobilityModel,
    RandomDirection,
    RandomWalk,
    RandomWaypoint,
    Scripted,
    sample_trajectory,
)
from .mutation import KimuraParams, SubstitutionMode, mutation_direction
from .seqstat import (
    Alphabet,
    build_alignment,
    hotspots as select_hotspots,
    parse_fasta,
    positional_entropy,
)

_ALPHABETS = {"nt": Alphabet.NUCLEOTIDE, "aa": Alphabet.AMINO}


def _meta(cfg: ScenarioConfig | None, seed: int | None = None,
          input_digest: str | None = None) -> dict[str, str]:
    meta = {"tool": "virodyne", "version": __version__}
    if cfg is not None:
        meta["config_sha256"] = config_hash(cfg)
    if input_digest is not None:
        meta["input_sha256"] = input_digest
    if seed is not None:
        meta["seed"] = str(seed)
    return meta


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_fasta(path: str, alphabet: Alphabet):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fasta(fh, alphabet)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_field(args) -> int:
    cfg = load_config(args.config)
    cfg.require("environment", "source", "grid")
    if args.speed is not None:
        for src in cfg.sources:
            src.velocity_mps = (args.speed, 0.0, 0.0)
    if args.time:
        cfg.grid.times_s = tuple(args.time)
    env = cfg.environment.build()
    times = list(cfg.grid.times_s)
    horizon = max(times) + 1.0
    sources = [s.build(horizon) for s in cfg.sources]
    xs, ys, zs = cfg.grid.axes()
    try:
        query = FieldQuery.from_grid(xs, ys, zs, times)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    values = evaluate_field(query, Scenario(env, sources),
                            quadrature_tol=cfg.solver.quadrature_tol)
    rows = [
        (float(p[0]), float(p[1]), float(p[2]), float(t), float(c))
        for p, t, c in zip(query.positions, query.times, values)
    ]
    write_csv(args.out, ["x", "y", "z", "t", "c"], rows,
              _meta(cfg, seed=args.seed if args.seed is not None else cfg.run.seed))
    return 0


def _build_population(cfg: ScenarioConfig, seed: int) -> list[Agent]:
    pop = cfg.population
    epi = cfg.epidemic
    lo, hi = pop.domain_m[:3], pop.domain_m[3:]
    box = Box(lo=tuple(lo), hi=tuple(hi))
    policy = (BoundaryPolicy.REFLECT if pop.boundary_policy == "reflect"
              else BoundaryPolicy.WRAP_TO_WAYPOINT)
    if pop.mobility == "walk":
        kind = RandomWalk(pop.step_len_m, pop.step_dt_s)
    elif pop.mobility == "waypoint":
        kind = RandomWaypoint(pop.speed_min_mps, pop.speed_max_mps, pop.pause_s)
    elif pop.mobility == "direction":
        kind = RandomDirection(pop.speed_mps, pop.epoch_s)
    else:
        kind = Scripted(pop.velocity_mps)
    model = MobilityModel(kind=kind, domain=box, boundary=policy)
    agents = []
    for i in range(pop.n_agents):
        # Stream 0 drives infection draws; agent i owns stream i + 1.
        stream = rng_stream(seed, i + 1)
        start = box.sample_point(stream)
        traj = sample_trajectory(model, start, epi.horizon_s, stream)
        agents.append(Agent(
            agent_id=i,
            trajectory=traj,
            emission_rate=pop.emission_rate_kgs,
            breathing_rate=pop.breathing_hz,
            infected_since=-epi.latency_s if i < pop.initial_infected else None,
        ))
    return agents


def _cmd_epidemic(args) -> int:
    cfg = load_config(args.config)
    cfg.require("environment", "population", "epidemic")
    seed = args.seed if args.seed is not None else cfg.run.seed
    env = cfg.environment.build()
    try:
        epi_cfg = EpidemicConfig(
            dose_coefficient=cfg.epidemic.dose_coefficient,
            latency=cfg.epidemic.latency_s,
            step=cfg.epidemic.step_s,
            horizon=cfg.epidemic.horizon_s,
        )
        agents = _build_population(cfg, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    state = run_epidemic(agents, epi_cfg, env, seed)
    rows = []
    for snap in state.snapshots:
        for i in range(len(agents)):
            infected = math.isfinite(snap.infected_since[i])
            rows.append((float(snap.time), i, "I" if infected else "S",
                         float(snap.cumulative_dose[i])))
    write_csv(args.out, ["t", "agent_id", "state", "cumulative_dose"], rows,
              _meta(cfg, seed=seed))
    if args.summary:
        curve = state.infection_curve()
        write_json(args.summary, {
            "times": [t for t, _ in curve],
            "infected_count": [n for _, n in curve],
            "n_agents": len(agents),
        }, _meta(cfg, seed=seed))
    return 0


def _cmd_detect(args) -> int:
    cfg = load_config(args.config)
    cfg.require("detection")
    det = cfg.detection
    seed = args.seed if args.seed is not None else cfg.run.seed
    try:
        cir = ChannelImpulseResponse(taps=np.array(det.taps),
                                     symbol_interval=det.symbol_interval_s)
        if det.noise == "gaussian":
            noise = GaussianNoise(det.sigma)
        else:
            noise = PoissonNoise(det.alpha)
        if det.mode == "threshold":
            mode = SymbolThreshold(det.threshold if det.threshold >= 0 else None)
        elif det.mode == "sequence":
            mode = SequenceML()
        else:
            mode = NonCoherentDifference(det.threshold_delta)
        detector = DetectorConfig(mode=mode, p1=det.p1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    est = error_probability(cir, detector, noise, det.bits_per_frame,
                            det.trials, seed)
    mi = mutual_information(est.joint)
    write_json(args.out, {
        "ber": est.ber,
        "ci": [est.ci_low, est.ci_high],
        "mi_bits": mi,
        "trials": est.trials,
        "bits_total": est.bits_total,
        "seed": seed,
    }, _meta(cfg, seed=seed))
    return 0


def _cmd_localize(args) -> int:
    cfg = load_config(args.config)
    cfg.require("environment")
    loc = cfg.localize or LocalizeSection()
    env = cfg.environment.build()
    readings = read_readings_csv(args.readings)
    try:
        solver = SolverConfig(
            grid_resolution=loc.grid_resolution,
            max_iterations=loc.max_iterations,
            search_box=((loc.search_box_m[:3], loc.search_box_m[3:])
                        if loc.search_box_m else None),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    est = localize(readings, env, source_kind=loc.source_kind, config=solver)
    write_json(args.out, {
        "position": [est.position.x, est.position.y, est.position.z],
        "rate": est.rate,
        "residual_norm": est.residual_norm,
        "converged": est.converged,
        "iterations": est.iterations,
        "crlb_position_m": est.crlb_position_m,
        "n_readings": len(readings),
    }, _meta(cfg, input_digest=_file_digest(args.readings)))
    return 0


def _cmd_entropy(args) -> int:
    alphabet = _ALPHABETS[args.alphabet]
    records = _load_fasta(args.fasta, alphabet)
    alignment = build_alignment(records, alphabet, strict_length=not args.no_strict)
    profile = positional_entropy(alignment, pseudocount=args.pseudocount)
    # One f-string per line; repr of a Python float is format_float's text.
    rows = [f"{i},{e!r},{n}" for i, e, n in zip(range(1, profile.length + 1),
                                                profile.entropies.tolist(),
                                                profile.n_effective.tolist())]
    write_csv(args.out, ["position", "entropy_bits", "n_effective"], rows,
              _meta(None, input_digest=_file_digest(args.fasta)))
    return 0


def _cmd_hotspots(args) -> int:
    alphabet = _ALPHABETS[args.alphabet]
    records = _load_fasta(args.fasta, alphabet)
    alignment = build_alignment(records, alphabet, strict_length=not args.no_strict)
    profile = positional_entropy(alignment, pseudocount=args.pseudocount)
    if args.top is not None:
        spots = select_hotspots(profile, top_k=args.top)
    else:
        spots = select_hotspots(profile, min_entropy=args.min_entropy)
    write_json(args.out, {
        "hotspots": [{"position": h.position, "entropy_bits": h.entropy}
                     for h in spots],
        "length": profile.length,
    }, _meta(None, input_digest=_file_digest(args.fasta)))
    return 0


def _cmd_direction(args) -> int:
    alphabet = _ALPHABETS[args.alphabet]
    records = _load_fasta(args.fasta, alphabet)
    alignment = build_alignment(records, alphabet)
    params = KimuraParams(q=args.q, gamma=args.gamma)
    level = {"base": "base", "codon": "codon", "aa": "amino"}[args.level]
    report = mutation_direction(alignment, args.position, params,
                                level=level, mode=args.mode)
    payload = {
        "position": report.position,
        "level": report.level,
        "mode": report.mode,
        "source": report.source,
        "targets": [{"state": t.state, "probability": t.probability}
                    for t in report.targets],
    }
    if args.out:
        write_json(args.out, payload,
                   _meta(None, input_digest=_file_digest(args.fasta)))
    print(f"mutation direction at position {report.position} "
          f"(level={report.level}, mode={report.mode})")
    for tgt in report.targets[:args.top]:
        name = AMINO_NAMES.get(tgt.state, tgt.state) if report.level == "amino" \
            else tgt.state
        print(f"  {name:<5} {format_float(tgt.probability)}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virodyne",
        description="Airborne transmission simulation and sequence mutation analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="evaluate a concentration grid to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--speed", type=float, default=None,
                   help="override source motion: straight line along +x, m/s")
    p.add_argument("--time", type=float, action="append", default=None,
                   help="override grid evaluation time(s), seconds")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("epidemic", help="run the SI simulation to CSV/JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_epidemic)

    p = sub.add_parser("detect", help="Monte-Carlo detection metrics to JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("localize", help="estimate a source from readings CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--readings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("entropy", help="per-position entropy profile to CSV")
    p.add_argument("--fasta", required=True)
    p.add_argument("--alphabet", choices=("nt", "aa"), default="nt")
    p.add_argument("--pseudocount", type=float, default=0.0)
    p.add_argument("--no-strict", action="store_true",
                   help="truncate unequal-length rows instead of failing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("hotspots", help="ranked high-entropy positions to JSON")
    p.add_argument("--fasta", required=True)
    p.add_argument("--alphabet", choices=("nt", "aa"), default="nt")
    p.add_argument("--pseudocount", type=float, default=0.0)
    p.add_argument("--no-strict", action="store_true")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--top", type=int, default=None)
    group.add_argument("--min-entropy", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hotspots)

    p = sub.add_parser("direction", help="ranked mutation targets for a position")
    p.add_argument("--fasta", required=True)
    p.add_argument("--position", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mode", choices=SubstitutionMode.ALL,
                   default=SubstitutionMode.FULL)
    p.add_argument("--level", choices=("base", "codon", "aa"), default="aa")
    p.add_argument("--alphabet", choices=("nt", "aa"), default="nt")
    p.add_argument("--top", type=int, default=10,
                   help="how many ranked targets to print")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_direction)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        # bad invocation: unusable config or missing input file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VirodyneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
