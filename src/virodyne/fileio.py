"""Bit-exact artifact readers and writers.

CSV files use '.' decimals, '\\n' line endings, and shortest round-trip
float formatting; JSON is emitted with sorted keys. Metadata (tool version,
seed, config hash) rides in '#'-prefixed header lines for CSV and a "meta"
object for JSON, and never includes timestamps, so identical inputs always
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .localization import SensorReading


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
    doc = dict(payload)
    if meta:
        doc["meta"] = dict(meta)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_readings_csv(path: str) -> list[SensorReading]:
    """Sensor readings CSV with header x,y,z,t,c,sigma; blank and '#' lines
    are skipped. A missing or wrong header, a row of the wrong width and a
    non-numeric cell raise ConfigError; row numbers count the header as
    row 1."""
    header = ["x", "y", "z", "t", "c", "sigma"]
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ConfigError(f"no data in readings file {path}")
    got = [h.strip() for h in lines[0].split(",")]
    if got != header:
        raise ConfigError(
            f"readings header must be {','.join(header)}, got {','.join(got)}"
        )
    readings = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"expected {len(header)} columns on data row {i}")
        try:
            x, y, z, t, c, sigma = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric value on data row {i}") from None
        readings.append(SensorReading(position=(x, y, z), time=t,
                                      concentration=c, sigma=sigma))
    return readings
