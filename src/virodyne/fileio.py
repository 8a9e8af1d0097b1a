"""Bit-exact artifact writers.

CSV files use '.' decimals, '\\n' line endings, and shortest round-trip
float formatting; JSON is emitted with sorted keys. Metadata (tool version,
seed, config hash) rides in '#'-prefixed header lines for CSV and a "meta"
object for JSON, and never includes timestamps, so identical inputs always
produce byte-identical artifacts.

An existing artifact is overwritten in place, not atomically: the new bytes
are written from the start of the file, which is then cut to their length
(a device or FIFO such as /dev/null is written, never cut). A reader that
needs an atomic swap writes to a new path and renames it.
"""

from __future__ import annotations

import json
import os
import stat
from typing import Iterable, Mapping, Sequence

from .errors import VirodyneError


def write_csv(path: str, header: Sequence[str], rows: Iterable[str],
              meta: Mapping[str, str] | None = None) -> None:
    """Meta lines, the header, then the rows, each an already rendered line
    (floats as repr of a Python float, so an f-string's !r over .tolist()
    values)."""
    lines = [f"# {key} = {value}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    lines.extend(rows)
    _write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict, meta: Mapping[str, str] | None = None) -> None:
    """The payload with its meta object; a NaN or infinite number, which
    JSON cannot hold, raises VirodyneError before the file is opened."""
    doc = dict(payload)
    if meta:
        doc["meta"] = dict(meta)
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise VirodyneError(f"cannot write {path}: {exc}") from None
    _write(path, text + "\n")


_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(path: str, text: str) -> None:
    """Write text as UTF-8 over the start of path; a new file gets mode
    0o666 less the umask, as under builtin open. There is no O_TRUNC, which
    costs more than the write itself: a regular file is cut to the bytes
    written afterwards, also when a write fails partway, so no old tail is
    left."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, _FLAGS, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        done = 0
        try:
            while done < len(data):
                done += os.write(fd, data[done:])
        finally:
            if regular:
                os.ftruncate(fd, done)
    finally:
        os.close(fd)
