"""Bit-exact artifact writers.

CSV files use '.' decimals, '\\n' line endings, and shortest round-trip
float formatting; JSON is emitted with sorted keys. Metadata (tool version,
seed, config hash) rides in '#'-prefixed header lines for CSV and a "meta"
object for JSON, and never includes timestamps, so identical inputs always
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
