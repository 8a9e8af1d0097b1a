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

import numpy as np

from .errors import ConfigError
from .localization import SensorReading
from .mobility import Trajectory


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def render_csv(header: Sequence[str], rows: Iterable[str],
               meta: Mapping[str, str] | None = None) -> str:
    """CSV text: meta lines, the header, then the rows, each an already
    rendered line (floats as format_float writes them, which is repr of a
    Python float, so an f-string's !r over .tolist() values)."""
    lines = [f"# {key} = {value}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[str],
              meta: Mapping[str, str] | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(header, rows, meta))


def render_json(payload: dict, meta: Mapping[str, str] | None = None) -> str:
    doc = dict(payload)
    if meta:
        doc["meta"] = dict(meta)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_json(path: str, payload: dict, meta: Mapping[str, str] | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_json(payload, meta))


def _data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]


def read_readings_csv(path: str) -> list[SensorReading]:
    """Sensor readings CSV with header x,y,z,t,c,sigma."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _data_lines(fh.read())
    if not lines:
        raise ConfigError(f"no data in readings file {path}")
    header = [h.strip() for h in lines[0].split(",")]
    expected = ["x", "y", "z", "t", "c", "sigma"]
    if header != expected:
        raise ConfigError(
            f"readings header must be {','.join(expected)}, got {','.join(header)}"
        )
    readings = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ConfigError(f"expected 6 columns on data row {i}")
        try:
            x, y, z, t, c, sigma = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric value on data row {i}") from None
        readings.append(SensorReading(position=(x, y, z), time=t,
                                      concentration=c, sigma=sigma))
    return readings


def write_trajectory_csv(path: str, trajectory: Trajectory,
                         meta: Mapping[str, str] | None = None) -> None:
    rows = [f"{t!r},{x!r},{y!r},{z!r}"
            for t, (x, y, z) in zip(trajectory.times.tolist(), trajectory.points.tolist())]
    write_csv(path, ["t", "x", "y", "z"], rows, meta)


def read_trajectory_csv(path: str) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        lines = _data_lines(fh.read())
    if not lines or [h.strip() for h in lines[0].split(",")] != ["t", "x", "y", "z"]:
        raise ConfigError(f"trajectory file {path} must start with header t,x,y,z")
    times, points = [], []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"expected 4 columns on data row {i}")
        vals = [float(p) for p in parts]
        times.append(vals[0])
        points.append(vals[1:])
    return Trajectory(np.array(times), np.array(points))
