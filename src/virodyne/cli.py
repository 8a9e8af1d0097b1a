"""Command-line front end.

Subcommands:
  field      evaluate a concentration grid and export it as CSV
  epidemic   run the agent-based SI simulation, export the time series
  detect     OOK detection metrics (BER, mutual information): exact sums for
             the per-sample detectors, Monte-Carlo for sequence ML
  localize   estimate source position/intensity from a readings CSV
  entropy    per-position Shannon entropy profile of a FASTA alignment
  hotspots   ranked high-entropy positions of a FASTA alignment
  direction  ranked mutation targets for one alignment position

Exit codes: 0 success, 1 domain error (degenerate data, failed estimation),
2 usage error (unknown flags, malformed or missing configuration). Identical
inputs and seed produce byte-identical artifacts.

Import rule: this module imports no layer of the toolkit at its top but
`core` and `errors`. A subcommand imports only the layers it runs
(`virodyne entropy` loads no `channel`), and looks each layer name up in
this module's namespace each time it runs, so a wrapper set on this module
(`monkeypatch.setattr(cli, "localize", ...)`, a tracer) is the one called.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys

import numpy as np

from . import __version__
from .core import AMINO_NAMES, SubstitutionMode, rng_stream
from .errors import ConfigError, InvalidParams, OutOfDomain, VirodyneError

# The layer of each name the subcommands use; run_epidemic and
# select_hotspots are epidemic.run and seqstat.hotspots. No layer is
# imported with this module: main binds the names of the layers a
# subcommand runs before it runs it (see `command` in build_parser), and
# reading a name on this module binds it too (PEP 562).
_LAYERS = {
    "channel": ("Boundary", "FieldQuery", "Scenario", "check_inside", "evaluate_field"),
    "config": ("LocalizeSection", "ScenarioConfig", "config_hash", "load_config"),
    "detection": ("ChannelImpulseResponse", "DetectorConfig", "GaussianNoise",
                  "NonCoherentDifference", "PoissonNoise", "SequenceML", "SymbolThreshold",
                  "error_probability", "exact_error_probability", "mutual_information"),
    "epidemic": ("Agent", "EpidemicConfig", "run_epidemic"),
    "fileio": ("write_csv", "write_json"),
    "localization": ("SolverConfig", "localize", "read_readings_csv"),
    "mobility": ("BoundaryPolicy", "Box", "MobilityModel", "RandomDirection", "RandomWalk",
                 "RandomWaypoint", "Scripted", "sample_population"),
    "mutation": ("KimuraParams", "mutation_direction"),
    "seqstat": ("AlignmentMatrix", "Alphabet", "EntropyProfile", "build_alignment",
                "parse_fasta", "positional_entropy", "select_hotspots"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}
_RENAMED = {"run_epidemic": "run", "select_hotspots": "hotspots"}


def __getattr__(name: str):
    """Import the layer that holds `name` and bind the name here. A value
    bound first wins, so a wrapper set on this module before the layer's
    first use stays in place."""
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__package__}.{_LAYER_OF[name]}"
    __import__(module)  # unlike importlib.import_module, -X importtime lists it
    return globals().setdefault(name, getattr(sys.modules[module], _RENAMED.get(name, name)))


# The --alphabet choices, as names of seqstat.Alphabet members.
_ALPHABETS = {"nt": "NUCLEOTIDE", "aa": "AMINO"}


def _meta(cfg: ScenarioConfig | None, seed: int | None = None,
          input_path: str | None = None) -> dict[str, str]:
    meta = {"tool": "virodyne", "version": __version__}
    if cfg is not None:
        meta["config_sha256"] = config_hash(cfg)
    if input_path is not None:
        with open(input_path, "rb") as fh:
            meta["input_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    if seed is not None:
        meta["seed"] = str(seed)
    return meta


def _scenario(args, *sections: str) -> tuple[ScenarioConfig, int]:
    """The command's config with its required sections checked, and the
    seed: --seed where the command takes it and it is given, else [run]."""
    cfg = load_config(args.config)
    cfg.require(*sections)
    seed = getattr(args, "seed", None)
    return cfg, cfg.run.seed if seed is None else seed


def _alignment(args) -> AlignmentMatrix:
    """The --fasta file as an alignment of the --alphabet residues."""
    alphabet = Alphabet[_ALPHABETS[args.alphabet]]
    with open(args.fasta, "r", encoding="utf-8") as fh:
        records = parse_fasta(fh, alphabet)
    return build_alignment(records, alphabet, strict_length=not args.no_strict)


def _profile(args) -> EntropyProfile:
    return positional_entropy(_alignment(args), pseudocount=args.pseudocount)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float, formed once per distinct value (told apart by
    their bits, so that -0.0 keeps its sign)."""
    bits, where = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                            return_inverse=True)
    texts = [repr(v) for v in bits.view(float).tolist()]
    return [texts[i] for i in where.tolist()]


def _cmd_field(args) -> int:
    cfg, _ = _scenario(args, "environment", "source", "grid")
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
    query = FieldQuery.from_grid(xs, ys, zs, times)
    values = evaluate_field(query, Scenario(env, sources))
    coords = [_reprs(query.positions[:, k]) for k in range(3)] + [_reprs(query.times)]
    rows = [f"{x},{y},{z},{t},{c!r}" for x, y, z, t, c in zip(*coords, values.tolist())]
    write_csv(args.out, ["x", "y", "z", "t", "c"], rows, _meta(cfg))
    return 0


def _build_population(cfg: ScenarioConfig, seed: int, boundary: Boundary) -> list[Agent]:
    """The agents, roaming a box that must lie inside the boundary's region."""
    pop = cfg.population
    epi = cfg.epidemic
    try:
        box = Box(lo=tuple(pop.domain_m[:3]), hi=tuple(pop.domain_m[3:]))
        check_inside(boundary, (box.lo, box.hi), "population box corner")
    except (ValueError, OutOfDomain) as exc:
        raise ConfigError(str(exc), "domain_m") from None
    policy = (BoundaryPolicy.REFLECT if pop.boundary_policy == "reflect"
              else BoundaryPolicy.WRAP_TO_WAYPOINT)
    # Each [population] mobility kind: its class and the keys of its arguments.
    cls, keys = {
        "walk": (RandomWalk, ("step_len_m", "step_dt_s")),
        "waypoint": (RandomWaypoint, ("speed_min_mps", "speed_max_mps", "pause_s")),
        "direction": (RandomDirection, ("speed_mps", "epoch_s")),
        "scripted": (Scripted, ("velocity_mps",)),
    }[pop.mobility]
    try:
        kind = cls(*(getattr(pop, k) for k in keys))
    except ValueError as exc:
        raise ConfigError(f"{exc} (keys {', '.join(map(repr, keys))})") from None
    model = MobilityModel(kind=kind, domain=box, boundary=policy)
    # Stream 0 drives infection draws; agent i owns stream i + 1.
    streams = [rng_stream(seed, i + 1) for i in range(pop.n_agents)]
    try:
        paths = sample_population(model, epi.horizon_s, streams)
    except ValueError as exc:  # a path past one of the sampler's bounds
        names = ", ".join(map(repr, ("domain_m", *keys, "horizon_s")))
        raise ConfigError(f"{exc} (keys {names})") from None
    return [Agent(agent_id=i, trajectory=traj, emission_rate=pop.emission_rate_kgs,
                  breathing_rate=pop.breathing_hz,
                  infected_since=-epi.latency_s if i < pop.initial_infected else None)
            for i, traj in enumerate(paths)]


# Each EpidemicConfig field and its [epidemic] key.
_EPIDEMIC_KEYS = {"dose_coefficient": "dose_coefficient", "latency": "latency_s",
                  "step": "step_s", "horizon": "horizon_s"}


def _cmd_epidemic(args) -> int:
    cfg, seed = _scenario(args, "environment", "population", "epidemic")
    env = cfg.environment.build()
    try:
        epi_cfg = EpidemicConfig(**{name: getattr(cfg.epidemic, key)
                                    for name, key in _EPIDEMIC_KEYS.items()})
    except ValueError as exc:  # its message starts with the field's name
        raise ConfigError(str(exc), _EPIDEMIC_KEYS.get(str(exc).split()[0])) from None
    agents = _build_population(cfg, seed, env.boundary)
    state = run_epidemic(agents, epi_cfg, env, seed)
    rows = []
    for snap in state.snapshots:
        t = repr(float(snap.time))
        rows += [f"{t},{i},{'I' if math.isfinite(since) else 'S'},{dose!r}"
                 for i, (since, dose) in enumerate(zip(snap.infected_since.tolist(),
                                                       snap.cumulative_dose.tolist()))]
    meta = _meta(cfg, seed=seed)
    write_csv(args.out, ["t", "agent_id", "state", "cumulative_dose"], rows, meta)
    if args.summary:
        curve = state.infection_curve()
        write_json(args.summary, {
            "times": [t for t, _ in curve],
            "infected_count": [n for _, n in curve],
            "n_agents": len(agents),
        }, meta)
    return 0


def _cmd_detect(args) -> int:
    cfg, seed = _scenario(args, "detection")
    det = cfg.detection
    cir = ChannelImpulseResponse(taps=np.array(det.taps))
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
    # Sequence ML has no closed form; the per-sample rules report the
    # expected BER of the configured trials.
    if isinstance(mode, SequenceML):
        est = error_probability(cir, detector, noise, det.bits_per_frame,
                                det.trials, seed)
        method = "monte_carlo"
    else:
        est = exact_error_probability(cir, detector, noise, det.bits_per_frame)
        method = "exact"
    write_json(args.out, {
        "ber": est.ber,
        "ci": [est.ci_low, est.ci_high],
        "method": method,
        "mi_bits": mutual_information(est.joint),
        "trials": det.trials,
        "bits_total": det.trials * det.bits_per_frame,
        "seed": seed,
    }, _meta(cfg, seed=seed))
    return 0


def _cmd_localize(args) -> int:
    cfg, _ = _scenario(args, "environment")
    loc = cfg.localize or LocalizeSection()
    env = cfg.environment.build()
    readings = read_readings_csv(args.readings)
    solver = SolverConfig(
        grid_resolution=loc.grid_resolution,
        max_iterations=loc.max_iterations,
        search_box=((loc.search_box_m[:3], loc.search_box_m[3:])
                    if loc.search_box_m else None),
    )
    est = localize(readings, env, source_kind=loc.source_kind, config=solver)
    write_json(args.out, {
        "position": [est.position.x, est.position.y, est.position.z],
        "rate": est.rate,
        "residual_norm": est.residual_norm,
        "converged": est.converged,
        "iterations": est.iterations,
        "crlb_position_m": est.crlb_position_m,
        "n_readings": len(readings),
    }, _meta(cfg, input_path=args.readings))
    return 0


def _cmd_entropy(args) -> int:
    profile = _profile(args)
    rows = [f"{i},{e},{n}" for i, e, n in zip(range(1, profile.length + 1),
                                              _reprs(profile.entropies),
                                              profile.n_effective.tolist())]
    write_csv(args.out, ["position", "entropy_bits", "n_effective"], rows,
              _meta(None, input_path=args.fasta))
    return 0


def _cmd_hotspots(args) -> int:
    profile = _profile(args)
    if args.top is not None:
        spots = select_hotspots(profile, top_k=args.top)
    else:
        spots = select_hotspots(profile, min_entropy=args.min_entropy)
    write_json(args.out, {
        "hotspots": [{"position": h.position, "entropy_bits": h.entropy}
                     for h in spots],
        "length": profile.length,
    }, _meta(None, input_path=args.fasta))
    return 0


def _cmd_direction(args) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be >= 0, got {args.top}")
    try:
        params = KimuraParams(q=args.q, gamma=args.gamma)
    except InvalidParams as exc:  # flags out of range: a usage error
        raise ValueError(f"--q {args.q:g} --gamma {args.gamma:g}: {exc}") from None
    alignment = _alignment(args)
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
        write_json(args.out, payload, _meta(None, input_path=args.fasta))
    print(f"mutation direction at position {report.position} "
          f"(level={report.level}, mode={report.mode})")
    for tgt in report.targets[:args.top]:
        name = AMINO_NAMES.get(tgt.state, tgt.state) if report.level == "amino" \
            else tgt.state
        print(f"  {name:<5} {tgt.probability!r}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by main."""
    parser = argparse.ArgumentParser(
        prog="virodyne",
        description="Airborne transmission simulation and sequence mutation analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by several commands, declared once as parent parsers.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    fasta = argparse.ArgumentParser(add_help=False)
    fasta.add_argument("--fasta", required=True)
    fasta.add_argument("--alphabet", choices=("nt", "aa"), default="nt")
    profile = argparse.ArgumentParser(add_help=False)
    profile.add_argument("--pseudocount", type=float, default=0.0)
    profile.add_argument("--no-strict", action="store_true",
                         help="truncate unequal-length rows instead of failing")

    def command(name: str, func, layers: tuple[str, ...], about: str,
                *parents) -> argparse.ArgumentParser:
        """A subcommand; main binds the names of `layers`, and of fileio,
        which every subcommand writes through, before func runs."""
        p = sub.add_parser(name, help=about, parents=parents)
        p.set_defaults(func=func, layers=("fileio", *layers))
        return p

    p = command("field", _cmd_field, ("config", "channel"),
                "evaluate a concentration grid to CSV", config, out)
    p.add_argument("--speed", type=float, default=None,
                   help="override source motion: straight line along +x, m/s")
    p.add_argument("--time", type=float, action="append", default=None,
                   help="override grid evaluation time(s), seconds")

    p = command("epidemic", _cmd_epidemic, ("config", "channel", "mobility", "epidemic"),
                "run the SI simulation to CSV/JSON", config, out, seed)
    p.add_argument("--summary", default=None)

    command("detect", _cmd_detect, ("config", "detection"),
            "detection BER and mutual information to JSON", config, out, seed)

    p = command("localize", _cmd_localize, ("config", "localization"),
                "estimate a source from readings CSV", config, out)
    p.add_argument("--readings", required=True)

    command("entropy", _cmd_entropy, ("seqstat",),
            "per-position entropy profile to CSV", fasta, profile, out)

    p = command("hotspots", _cmd_hotspots, ("seqstat",),
                "ranked high-entropy positions to JSON", fasta, profile, out)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--top", type=int, default=None)
    group.add_argument("--min-entropy", type=float, default=None)

    p = command("direction", _cmd_direction, ("seqstat", "mutation"),
                "ranked mutation targets for a position", fasta)
    p.add_argument("--position", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mode", choices=SubstitutionMode.ALL,
                   default=SubstitutionMode.FULL)
    p.add_argument("--level", choices=("base", "codon", "aa"), default="aa")
    p.add_argument("--top", type=int, default=10,
                   help="how many ranked targets to print")
    p.add_argument("--out", default=None)
    p.set_defaults(no_strict=False)  # codon columns need equal-length rows

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for layer in args.layers:
        for name in _LAYERS[layer]:
            if name not in globals():
                __getattr__(name)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        # bad invocation: unusable config or missing input file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VirodyneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError) as exc:
        # an argument out of its range, caught where it is used
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
