#!/usr/bin/env python3
"""Self-test of the benchmark's tracer. Run from the repository root:

    python3 perfbench/selftest.py [--seed N]

Checks the span bookkeeping on synthetic input (nesting, self time with
overlapping children on worker threads, wrappers on functions, methods and
classmethods, absent names, uninstall), then runs every workload twice
under a fresh tracer and requires every per-layer count to repeat exactly.
Exits 1 on the first failure.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import threading
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Span, Tracer, covered, self_times  # noqa: E402


def _expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAILED: {what}")
        sys.exit(1)


def check_tracer() -> None:
    _expect(covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4, "union of intervals")
    _expect(covered([(0, 2), (1, 3)], 1.5, 2.5) == 1.0, "clipped union")
    spans = [Span(1, None, "a.x", 0.0, 10.0, 0), Span(2, 1, "b.y", 1.0, 4.0, 1),
             Span(3, 1, "b.y", 2.0, 6.0, 2), Span(4, 3, "c.z", 2.0, 3.0, 2)]
    own = self_times(spans)
    _expect(own == {1: 5.0, 2: 3.0, 3: 3.0, 4: 1.0}, f"self times {own}")

    class Box:
        def method(self, x):
            return x + 1

        @classmethod
        def make(cls, x):
            return x * 2

    mod = types.SimpleNamespace(__name__="mod")

    def inner(x):
        return x - 1

    def outer(fn, n):
        threads = [threading.Thread(target=fn, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            _expect(not t.is_alive(), "worker thread finished")
        return n

    mod.inner, mod.outer = inner, outer
    originals = (Box.__dict__["method"], Box.__dict__["make"], inner, outer)
    tr = Tracer()
    tr.wrap(mod, "inner", "m.inner", lambda a, k, r: {"got": r})
    tr.wrap(mod, "outer", "m.outer", propagate=True)
    tr.wrap(Box, "method", "m.method")
    tr.wrap(Box, "make", "m.make")
    tr.wrap(mod, "gone", "m.gone")
    _expect(tr.absent == ["mod.gone"], f"absent names {tr.absent}")
    with tr.span("top.run"):
        mod.outer(lambda i: mod.inner(i), 3)
        _expect(Box().method(1) == 2 and Box.make(3) == 6, "wrapped results")
    tr.uninstall()
    _expect((Box.__dict__["method"], Box.__dict__["make"], mod.inner, mod.outer)
            == originals, "uninstall restores every attribute")
    by_name: dict[str, list[Span]] = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    top, = by_name["top.run"]
    outer_span, = by_name["m.outer"]
    _expect(outer_span.parent == top.id, "outer is a child of the top span")
    _expect(len(by_name["m.inner"]) == 3 and all(
        s.parent == outer_span.id for s in by_name["m.inner"]),
        "spans on worker threads get the propagating span as parent")
    _expect(sorted(s.attrs["got"] for s in by_name["m.inner"]) == [-1, 0, 1],
            "note attributes")
    _expect(len({s.id for s in tr.spans}) == len(tr.spans), "unique span ids")


def check_counts_repeat(seed: int) -> None:
    import layers
    import run
    import inputs
    import workloads

    src = os.path.join(os.getcwd(), "src")
    _expect(os.path.isfile(os.path.join(src, "virodyne", "cli.py")),
            "run from the repository root")
    sys.path.insert(0, src)
    for name in workloads.WORKLOADS:
        os.environ["VIRODYNE_THREADS"] = workloads.THREADS[name]
        workdir = run._workdir(name, seed, "selftest")
        try:
            runner = run.Runner(workloads.BUILD_OPS[name](
                inputs.generate(name, seed, workdir)))
            counts = []
            for _ in range(2):
                tr = Tracer()
                layers.install(tr)
                try:
                    times = runner.run_pass(tr)
                finally:
                    tr.uninstall()
                _expect(times is not None, f"{name}: traced pass failed "
                        f"{runner.tally.errors}")
                m = layers.pass_metrics(tr.spans)
                counts.append({k: m[k] for k in layers.COUNTS})
            _expect(counts[0] == counts[1], f"{name}: counts differ between "
                    f"traced passes: {counts}")
            _expect(any(counts[0].values()), f"{name}: no counts at all")
            print(f"selftest: {name}: {sum(1 for v in counts[0].values() if v)} "
                  f"non-zero counts repeat exactly")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()
    check_tracer()
    print("selftest: tracer bookkeeping ok")
    check_counts_repeat(args.seed)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
