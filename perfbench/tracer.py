"""In-memory span tracer that instruments a program from the outside.

A span records (id, parent id, name, start, end, thread, attributes). Spans
stay in memory until the caller writes them out. Wrappers are installed by
name on the attribute a caller looks up (a module global, a class method,
a classmethod); a name that does not exist is recorded in `absent` instead
of raising, so the tracer keeps working when the program drops a function.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

Note = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrappers it installs; uninstall restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op: str | None = None  # label of the benchmark operation running
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int | None, name: str, start: float,
               end: float, attrs: dict) -> None:
        self._stack().pop()
        attrs.setdefault("op", self.op)
        span = Span(sid, parent, name, start, end, threading.get_ident(), attrs)
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            self._close(sid, parent, name, start, time.perf_counter(), attrs)

    def bind(self, fn: Callable, parent: int) -> Callable:
        """Run fn, possibly on another thread, as a child of span `parent`."""
        tracer = self

        @functools.wraps(fn)
        def bound(*args, **kwargs):
            saved = tracer._stack()[:]
            tracer._local.stack = [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._local.stack = saved
        return bound

    # -- installing wrappers ------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, note: Note | None = None,
             propagate: bool = False) -> None:
        """Replace owner.attr by a spanning wrapper.

        note(args, kwargs, result) returns span attributes; it runs after
        the span's end time is taken, and if it raises, the span records
        `note_error` instead. With propagate, the first positional
        argument is a callable that may run on worker threads; it is bound
        to this span so its spans get the right parent.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        is_cm = isinstance(raw, classmethod)
        func = raw.__func__ if is_cm else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            if propagate and args:
                args = (tracer.bind(args[0], sid),) + args[1:]
            start = time.perf_counter()
            result = None
            attrs: dict = {}
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                if note is not None and "error" not in attrs:
                    try:
                        attrs.update(note(args, kwargs, result))
                    except Exception as exc:  # the program's API moved on
                        attrs["note_error"] = f"{type(exc).__name__}: {exc}"
                tracer._close(sid, parent, name, start, end, attrs)

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    Children on worker threads may overlap each other; their union is
    subtracted once.
    """
    kids: dict[int | None, list[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return {
        s.id: s.duration - covered([(c.start, c.end) for c in kids.get(s.id, [])],
                                   s.start, s.end)
        for s in spans
    }
