"""Reference outputs for the default seed, recorded from a known-good
commit, and their comparison with stated tolerances.

The tolerances allow what an exact optimisation may change (float
summation order, a closed form in place of a 1e-6 quadrature) and nothing
that changes an answer: infection curves, hotspot positions and target
rankings must match exactly, and a BER must stay inside the reference's
95% Wilson interval.
"""

from __future__ import annotations

import json
import math
import os

DEFAULT_SEED = 1

# fact key -> ("rel", tol) | ("abs", tol) | "exact" | "skip"
TOLERANCE = {
    "c": ("rel", 1e-5),            # field samples; floor: 1e-9 of the largest
    "sum": ("rel", 1e-5),
    "mass": ("rel", 1e-9),
    "dose_sum": ("rel", 1e-6),
    "position": ("abs", 1e-3),     # metres
    "rate": ("rel", 1e-3),
    "mi_bits": ("abs", 0.02),
    "head": ("abs", 1e-9),
    "entropy": ("abs", 1e-9),
    "ci": "skip",                  # the BER is held to the reference interval
    "iterations": "skip",          # simplex path may differ, the optimum not
    "ber": "ci",
    "targets": "targets",          # same targets, probabilities to 1e-9
}


def path_for(workload: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference",
                        f"{workload}.json")


def record(workload: str, facts: dict[str, dict]) -> None:
    os.makedirs(os.path.dirname(path_for(workload)), exist_ok=True)
    with open(path_for(workload), "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "ops": facts}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _numbers_match(got, want, kind: str, tol: float, floor: float) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_numbers_match(g, w, kind, tol, floor)
                        for g, w in zip(got, want)))
    if isinstance(want, str):
        return got == want
    if kind == "abs":
        return abs(got - want) <= tol
    return abs(got - want) <= tol * max(abs(want), floor)


def compare(workload: str, facts: dict[str, dict]) -> list[str]:
    """Differences between this run's facts and the recorded reference."""
    try:
        with open(path_for(workload), encoding="utf-8") as fh:
            ref = json.load(fh)["ops"]
    except FileNotFoundError:
        return [f"reference: nothing recorded for {workload}"]
    errs = []
    for op, want in ref.items():
        got = facts.get(op)
        if got is None:
            errs.append(f"reference: no output for {op}")
            continue
        for key, w in want.items():
            rule = TOLERANCE.get(key, "exact")
            g = got.get(key)
            if rule == "skip":
                continue
            if rule == "ci":
                ok = want["ci"][0] <= g <= want["ci"][1]
            elif rule == "exact":
                ok = g == w
            elif rule == "targets":
                ok = _targets_match(g, w)
            else:
                kind, tol = rule
                scale = max((abs(x) for x in w), default=0.0) if isinstance(w, list) \
                    else abs(w)
                ok = _numbers_match(g, w, kind, tol, 1e-9 * scale)
            if not ok:
                errs.append(f"reference: {op}.{key} = {g!r}, recorded {w!r}")
    return errs


def _targets_match(got: list, want: list) -> bool:
    # Order is checked against the output itself; equal masses may swap.
    g, w = dict(got), dict(want)
    return g.keys() == w.keys() and all(
        math.isclose(g[k], w[k], rel_tol=1e-9, abs_tol=1e-15) for k in w)
