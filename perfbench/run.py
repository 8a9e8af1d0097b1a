#!/usr/bin/env python3
"""Benchmark for virodyne: three seeded workloads run through the public
CLI entry point (`virodyne.cli.main`) plus `fdpde.solve_advection_diffusion`,
with every output checked. Run it from the repository root:

    python3 perfbench/run.py --workload plume --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # all workloads, one table each

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 a traced run adds spans around each layer and reports the
per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy

import calibrate
import inputs
import layers
import reference
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
MIN_PASSES = 3
SETUP_FIRST = 4           # set-up samples before the passes; one more after each
CHILD_TIMEOUT_S = 150


def _die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _timing(samples: list[tuple[float, float]]) -> dict:
    """Summary of (raw seconds, calibrated seconds) samples: `value` is the
    median calibrated time; the raw median and fastest raw sample are kept
    for the report."""
    raw = [r for r, _ in samples]
    return {"value": _median([c for _, c in samples]), "raw_median": _median(raw),
            "raw_best": min(raw, default=0.0), "n": len(samples)}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 50:
            self.errors.append(msg)


class Runner:
    """Runs passes over a workload's operations and keeps their timings."""

    def __init__(self, ops):
        self.ops = ops
        self.digests: dict[str, str] = {}
        self.bad: set[str] = set()        # ops whose output failed a check
        self.tally = Tally()

    def run_pass(self, tracer=None) -> dict[str, tuple[float, float]] | None:
        """One pass, with the operation's reference work timed just before
        and just after each operation (one timing serves as the next
        operation's "before" when the kinds match). Returns op -> (raw
        seconds, calibrated seconds), or None if any op failed."""
        times: dict[str, tuple[float, float]] = {}
        kind, cal = None, 0.0
        for op in self.ops:
            if op.calibration != kind:
                kind, cal = op.calibration, calibrate.measure(op.calibration)
            self.tally.attempted += 1
            if tracer is not None:
                tracer.op = op.name
                ctx = tracer.span("cli.main" if op.cli else "bench.call")
            else:
                ctx = nullcontext()
            try:
                with ctx:
                    t0 = time.perf_counter()
                    rc = op.run()
                    dt = time.perf_counter() - t0
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rc = None
            before, cal = cal, calibrate.measure(kind)
            if rc != 0:
                self.tally.fail(f"{op.name}: exit code {rc}")
                continue
            digest = op.digest()
            if self.digests.setdefault(op.name, digest) != digest:
                self.tally.fail(f"{op.name}: output differs from the first pass")
                continue
            if op.name in self.bad:
                self.tally.fail(f"{op.name}: output failed its check")
                continue
            times[op.name] = (dt, calibrate.scale(dt, before, cal, kind))
        return times if len(times) == len(self.ops) else None


def _setup_samples(inp, src: str, tally: Tally, count: int) -> list[float]:
    """Wall seconds of `count` fresh set-ups. Not calibrated: a set-up is
    interpreter start, imports and file reads, which the CPU-bound reference
    work does not track."""
    cfgs = [p for p in inp.files.values() if p.endswith(".cfg")]
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), src, *cfgs]
    out = []
    for _ in range(count):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.fail(f"setup: no exit within {CHILD_TIMEOUT_S} s")
            continue
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            tally.fail(f"setup: exit code {proc.returncode}: {proc.stderr[-300:]}")
        else:
            out.append(dt)
    return out


def _peak_rss(workload: str, seed: int, tally: Tally) -> float:
    tally.attempted += 1
    cmd = [sys.executable, os.path.abspath(__file__), "--rss-pass",
           "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.fail(f"rss pass: no exit within {CHILD_TIMEOUT_S} s")
        return 0.0
    try:
        return float(json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"])
    except (ValueError, KeyError, IndexError):
        tally.fail(f"rss pass: exit code {proc.returncode}: {proc.stderr[-300:]}")
        return 0.0


def _workdir(workload: str, seed: int, tag: str) -> str:
    path = os.path.join(OUT, f"work-{workload}-{seed}-{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _rss_child(workload: str, seed: int) -> int:
    workdir = _workdir(workload, seed, "rss")
    try:
        ops = workloads.BUILD_OPS[workload](inputs.generate(workload, seed, workdir))
        for op in ops:
            if op.run() != 0:
                return _die(f"{op.name} failed in the memory pass")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}))
    return 0


def _machine(workload: str, src: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "VIRODYNE_THREADS": os.environ.get("VIRODYNE_THREADS"),
        "src_lines": layers.src_lines(src),
        "workload": workload,
    }


def _timed_passes(runner: Runner, seconds: float, tracer_factory=None,
                  between=None):
    """Passes until `seconds` have gone by (at least MIN_PASSES attempts),
    calling `between()` after each. Returns the successful passes' op times
    and, when traced, one (tracer, calibrated / raw pass time) per
    successful pass."""
    passes, tracers = [], []
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts < MIN_PASSES or time.perf_counter() < deadline:
        attempts += 1
        tracer = tracer_factory() if tracer_factory else None
        try:
            times = runner.run_pass(tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if between is not None:
            between()
        if times is None:
            continue
        passes.append(times)
        if tracer is not None:
            raw, scaled = (sum(v) for v in zip(*times.values()))
            tracers.append((tracer, scaled / raw))
    return passes, tracers


def _walls(passes) -> list[tuple[float, float]]:
    return [tuple(sum(v) for v in zip(*p.values())) for p in passes]


def _rates(workload: str, ops, passes) -> tuple[dict, dict]:
    """(slot metrics, named metrics) from the passes' op times."""
    by_name = {op.name: op for op in ops}
    named = {}
    for name, members, work, unit in workloads.NAMED[workload]:
        t = _timing([tuple(sum(v) for v in zip(*(p[m] for m in members)))
                     for p in passes])
        amount = 1.0 if work == "pass" else sum(
            by_name[m].items if work == "items" else by_name[m].facts[work]
            for m in members)
        named[name] = {"value": amount / t["value"] if t["value"] else 0.0,
                       "unit": unit, "n": t["n"],
                       "raw": amount / t["raw_median"] if t["raw_median"] else 0.0}
    slots = {f"op{k}_per_s": dict(named[n], unit="items/s")
             for k, n in enumerate(workloads.SLOTS[workload], start=1)}
    return slots, named


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 src: str, record: bool) -> dict:
    os.environ["VIRODYNE_THREADS"] = workloads.THREADS[workload]
    workdir = _workdir(workload, seed, "main")
    try:
        inp = inputs.generate(workload, seed, workdir)
        ops = workloads.BUILD_OPS[workload](inp)
        runner = Runner(ops)
        tally = runner.tally
        rss = _peak_rss(workload, seed, tally)

        # Warm-up pass: fills caches, and its outputs get the full checks.
        # Later passes must reproduce the same bytes.
        runner.run_pass()
        for op in ops:
            if op.name not in runner.digests:
                continue
            try:
                errs = op.check(op)
            except Exception as exc:  # a malformed output is a failed check
                errs = [f"{op.name}: output unreadable: {exc!r}"]
            if errs:
                runner.bad.add(op.name)
                tally.fail("; ".join(errs))
        facts = {op.name: op.facts for op in ops}
        if seed == reference.DEFAULT_SEED:
            if record and not runner.bad and tally.failed == 0:
                reference.record(workload, facts)
            for msg in reference.compare(workload, facts):
                tally.fail(msg)

        report = {"workload": workload, "seed": seed, "trace": int(trace),
                  "machine": _machine(workload, src),
                  "inputs": inp.manifest(), "slots": workloads.SLOTS[workload]}
        if not trace:
            # Set-up samples are spread over the run, so that they see the
            # same mix of host load as the passes.
            setup = _setup_samples(inp, src, tally, SETUP_FIRST)
            passes, _ = _timed_passes(runner, seconds, between=lambda: setup.extend(
                _setup_samples(inp, src, tally, 1)))
            slots, named = _rates(workload, ops, passes)
            walls = _timing(_walls(passes))
            metrics = {"wall_s": {"value": walls["value"], "unit": "s",
                                  "n": walls["n"], "raw": walls["raw_median"]},
                       **slots,
                       "peak_rss_mb": {"value": rss, "unit": "MB", "n": 1},
                       "setup_s": {"value": _median(setup), "unit": "s",
                                   "n": len(setup)}}
            report["named"] = named
        else:
            metrics, extra = _traced(workload, seed, runner, seconds, inp, src)
            report.update(extra)
        report["metrics"] = metrics
        report["attempted"], report["failed"] = tally.attempted, tally.failed
        report["errors"] = tally.errors
        report["correct"] = tally.failed == 0
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(workload: str, seed: int, runner: Runner, seconds: float, inp,
            src: str):
    def factory():
        tr = Tracer()
        layers.install(tr)
        return tr

    plain, _ = _timed_passes(runner, seconds / 2)
    traced, tracers = _timed_passes(runner, seconds / 2, factory)
    per_pass = []
    for tr, factor in tracers:
        for msg in layers.check_spans(tr.spans):
            runner.tally.fail(msg)
        m = layers.pass_metrics(tr.spans)
        for k in m:
            if layers.PER_LAYER[k][0] == "s":
                m[k] *= factor
        per_pass.append(m)
    if not per_pass:
        runner.tally.fail("trace: no traced pass succeeded")
    values = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]} \
        if per_pass else {}
    for key in layers.COUNTS:
        if key in values and len({m[key] for m in per_pass}) != 1:
            runner.tally.fail(f"trace: count {key} differs between traced passes: "
                              f"{[m[key] for m in per_pass]}")
    untraced_wall = _timing(_walls(plain))["value"]
    traced_wall = _timing(_walls(traced))["value"]
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["parallel.field_speedup_2t"] = (
        layers.field_speedup(inp.files["room"]) if workload == "plume" else 0.0)
    values["design.src_lines"] = float(layers.src_lines(src))
    metrics = {k: {"value": values.get(k, 0.0), "unit": unit, "n": len(per_pass)}
               for k, (unit, _) in layers.PER_LAYER.items()}
    last = tracers[-1][0] if tracers else Tracer()
    spans_path = os.path.join(OUT, f"{workload}-seed{seed}-spans.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in last.spans:
            fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, s.thread,
                                 s.attrs], default=str) + "\n")
    extra = {"absent": sorted(set(last.absent)), "spans_file": spans_path,
             "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "untraced_passes": len(plain), "traced_passes": len(traced)}
    return metrics, extra


def _print_table(report: dict) -> None:
    m = report["machine"]
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"VIRODYNE_THREADS={m['VIRODYNE_THREADS']}  nproc {m['nproc']}  "
          f"python {m['python']}  numpy {m['numpy']}  src lines {m['src_lines']}")
    rows = list(report["metrics"].items())
    if "named" in report:
        rows += list(report["named"].items())
    for name, v in rows:
        raw = f"  uncalibrated {v['raw']:.6g}" if "raw" in v else ""
        print(f"  {name:<34} {v['value']:>14.6g} {v['unit']:<14} n={v['n']}{raw}")
    att, fail = report["attempted"], report["failed"]
    print(f"  {'error_rate':<34} {fail / att if att else 0.0:>14.6g} "
          f"{'failed/op':<14} n={att}")
    print("  " + ", ".join(f"op{k}_per_s = {name}"
                           for k, name in enumerate(report["slots"], start=1)))
    if report.get("absent"):
        print(f"  absent (not traced): {', '.join(report['absent'])}")
    if "traced_wall_s" in report:
        print(f"  tracing overhead: traced pass {report['traced_wall_s']:.4f} s vs "
              f"untraced {report['untraced_wall_s']:.4f} s (calibrated medians)")
    for err in report["errors"]:
        print(f"  FAILED: {err}")


def _result_line(reports: list[dict], prefix: bool) -> str:
    metrics = {}
    for r in reports:
        for name, v in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": v["value"], "unit": v["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write perfbench/reference/<workload>.json "
                             "(default seed only)")
    parser.add_argument("--rss-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "virodyne", "cli.py")):
        return _die("run from the repository root: src/virodyne/cli.py not found")
    sys.path.insert(0, src)
    try:
        import virodyne.cli  # noqa: F401
    except ImportError as exc:
        return _die(f"cannot import the program: {exc}")

    if args.rss_pass:
        return _rss_child(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              src, args.record_reference)
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, default=str)
        _print_table(report)
        reports.append(report)
    print(_result_line(reports, prefix=len(reports) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
