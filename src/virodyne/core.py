"""Shared domain types: positions, velocities, times in seconds, the
standard genetic code, and the deterministic random-stream contract.

All value types here are immutable after construction and validate their
invariants eagerly (NaN/inf are rejected everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidResidue

# Canonical nucleotide ordering used by every matrix in the package.
NUCLEOTIDES = "ACGT"
NUCLEOTIDE_INDEX = {b: i for i, b in enumerate(NUCLEOTIDES)}

# Purine<->purine and pyrimidine<->pyrimidine partners.
TRANSITION_PARTNER = {"A": "G", "G": "A", "C": "T", "T": "C"}


# Which substitutions a Kimura matrix keeps (virodyne.mutation).
class SubstitutionMode:
    FULL = "full"
    TRANSITIONS_ONLY = "ts"
    TRANSVERSIONS_ONLY = "tv"

    ALL = (FULL, TRANSITIONS_ONLY, TRANSVERSIONS_ONLY)


# 20 amino acids in one-letter alphabetical order, STOP ('*') as the 21st state.
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
STOP = "*"
AMINO_STATES = AMINO_ACIDS + STOP
AMINO_STATE_INDEX = {a: i for i, a in enumerate(AMINO_STATES)}

AMINO_NAMES = {
    "A": "Ala", "C": "Cys", "D": "Asp", "E": "Glu", "F": "Phe",
    "G": "Gly", "H": "His", "I": "Ile", "K": "Lys", "L": "Leu",
    "M": "Met", "N": "Asn", "P": "Pro", "Q": "Gln", "R": "Arg",
    "S": "Ser", "T": "Thr", "V": "Val", "W": "Trp", "Y": "Tyr",
    "*": "STOP",
}


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Position:
    """A point in space, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite("Position", self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, arr: Sequence[float]) -> "Position":
        x, y, z = (float(v) for v in arr)
        return cls(x, y, z)


@dataclass(frozen=True)
class Velocity:
    """A constant velocity vector, m/s."""

    vx: float
    vy: float
    vz: float

    def __post_init__(self):
        _require_finite("Velocity", self.vx, self.vy, self.vz)

    def as_array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.vz], dtype=float)

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy, self.vz)


PositionLike = Union[Position, Sequence[float], np.ndarray]
VelocityLike = Union[Velocity, Sequence[float], np.ndarray]
TimeLike = float | int


def as_position(value: PositionLike) -> Position:
    if isinstance(value, Position):
        return value
    return Position.from_array(value)


def as_velocity(value: VelocityLike) -> Velocity:
    if isinstance(value, Velocity):
        return value
    vx, vy, vz = (float(v) for v in value)
    return Velocity(vx, vy, vz)


def seconds(value: TimeLike) -> float:
    """Coerce a time argument to float seconds, validating it is finite, >= 0."""
    t = float(value)
    _require_finite("time", t)
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return t


# ---------------------------------------------------------------------------
# Genetic code
# ---------------------------------------------------------------------------

# All 64 codons in the package's canonical order: lexicographic over ACGT.
CODONS = tuple(
    b1 + b2 + b3 for b1 in NUCLEOTIDES for b2 in NUCLEOTIDES for b3 in NUCLEOTIDES
)
CODON_INDEX = {c: i for i, c in enumerate(CODONS)}

# NCBI's standard table lists the amino acid ('*' = STOP) of each codon with
# the bases of every position in T, C, A, G order.
_NCBI_AA64 = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"
_TCAG = ["TCAG".index(b) for b in NUCLEOTIDES]

# The standard genetic code: the amino-state index of every codon, in CODONS
# order. The package's only copy of the table.
CODON_AMINO = np.array([AMINO_STATE_INDEX[a] for a in _NCBI_AA64]).reshape(
    4, 4, 4)[np.ix_(_TCAG, _TCAG, _TCAG)].flatten()
CODON_AMINO.setflags(write=False)


def translate(codon: Union[str, Iterable[str]]) -> str:
    """Translate one codon to its one-letter amino acid, or '*' for STOP."""
    if not isinstance(codon, str):
        codon = "".join(codon)
    codon = codon.upper().replace("U", "T")
    if codon not in CODON_INDEX:
        raise InvalidResidue(f"not a valid codon: {codon!r}")
    return AMINO_STATES[CODON_AMINO[CODON_INDEX[codon]]]


# ---------------------------------------------------------------------------
# Deterministic random streams
# ---------------------------------------------------------------------------

_MAX_SEED = 2**64


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Return an independent, reproducible random stream.

    The same (seed, stream_id) pair always yields the same sequence, on any
    platform; distinct stream_ids give statistically independent streams
    (counter-based Philox keyed through a SeedSequence spawn key).
    Components that split work into fixed chunks assign one stream per
    chunk, so results depend only on the inputs and the seed.
    """
    seed = int(seed)
    stream_id = int(stream_id)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if stream_id < 0:
        raise ValueError(f"stream_id must be >= 0, got {stream_id}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(ss))
