"""Shared domain types: positions, times, physical units, the standard
genetic code, and the deterministic random-stream contract.

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
class TimePoint:
    """A simulation time, seconds, non-negative."""

    seconds: float

    def __post_init__(self):
        _require_finite("TimePoint", self.seconds)
        if self.seconds < 0:
            raise ValueError(f"TimePoint must be >= 0, got {self.seconds}")

    def __float__(self) -> float:
        return self.seconds


@dataclass(frozen=True)
class Diffusivity:
    """A (possibly turbulence-scaled, effective) diffusivity, m^2/s."""

    m2_per_s: float

    def __post_init__(self):
        _require_finite("Diffusivity", self.m2_per_s)
        if self.m2_per_s <= 0:
            raise ValueError(f"Diffusivity must be > 0, got {self.m2_per_s}")

    def __float__(self) -> float:
        return self.m2_per_s


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
        return math.sqrt(self.vx**2 + self.vy**2 + self.vz**2)


PositionLike = Union[Position, Sequence[float], np.ndarray]
VelocityLike = Union[Velocity, Sequence[float], np.ndarray]
TimeLike = Union[TimePoint, float, int]


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

# NCBI convention: codon index runs over bases in T,C,A,G order for each of
# the three positions; the 64-character string lists the encoded amino acid
# ('*' = STOP) at each index.
_NCBI_BASE_ORDER = "TCAG"
_NCBI_AA64 = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"

STOP_CODONS = ("TAA", "TAG", "TGA")


class GeneticCode:
    """Mapping of the 64 DNA codons onto 20 amino acids plus STOP.

    Only the standard code is shipped; the constructor still validates the
    shape so a corrupted table cannot slip through: 64 entries, exactly the
    three canonical stop codons, every amino acid encoded at least once.
    """

    def __init__(self, table: dict[str, str]):
        if len(table) != 64:
            raise ValueError(f"genetic code must have 64 entries, got {len(table)}")
        stops = sorted(c for c, aa in table.items() if aa == STOP)
        if stops != sorted(STOP_CODONS):
            raise ValueError(f"expected stop codons {STOP_CODONS}, got {stops}")
        encoded = set(table.values())
        missing = set(AMINO_ACIDS) - encoded
        if missing:
            raise ValueError(f"amino acids with no codon: {sorted(missing)}")
        self._table = dict(table)
        self._codons_by_aa: dict[str, tuple[str, ...]] = {}
        for aa in AMINO_STATES:
            self._codons_by_aa[aa] = tuple(
                sorted(c for c, a in table.items() if a == aa)
            )

    @classmethod
    def standard(cls) -> "GeneticCode":
        table = {}
        for i, aa in enumerate(_NCBI_AA64):
            b1 = _NCBI_BASE_ORDER[i // 16]
            b2 = _NCBI_BASE_ORDER[(i // 4) % 4]
            b3 = _NCBI_BASE_ORDER[i % 4]
            table[b1 + b2 + b3] = aa
        return cls(table)

    def translate(self, codon: Union[str, Iterable[str]]) -> str:
        """Translate one codon to its one-letter amino acid, or '*' for STOP."""
        if not isinstance(codon, str):
            codon = "".join(codon)
        codon = codon.upper().replace("U", "T")
        if len(codon) != 3 or any(b not in NUCLEOTIDE_INDEX for b in codon):
            raise InvalidResidue(f"not a valid codon: {codon!r}")
        return self._table[codon]

    def codons_for(self, amino_acid: str) -> tuple[str, ...]:
        """All codons encoding the given amino acid (or '*')."""
        if amino_acid not in self._codons_by_aa:
            raise InvalidResidue(f"unknown amino acid: {amino_acid!r}")
        return self._codons_by_aa[amino_acid]

    def items(self):
        return self._table.items()

    def __getitem__(self, codon: str) -> str:
        return self.translate(codon)

    def __len__(self) -> int:
        return len(self._table)


STANDARD_GENETIC_CODE = GeneticCode.standard()

# All 64 codons in the package's canonical order: lexicographic over ACGT.
CODONS = tuple(
    b1 + b2 + b3 for b1 in NUCLEOTIDES for b2 in NUCLEOTIDES for b3 in NUCLEOTIDES
)
CODON_INDEX = {c: i for i, c in enumerate(CODONS)}


def translate(codon: Union[str, Iterable[str]]) -> str:
    """Translate a codon under the standard genetic code."""
    return STANDARD_GENETIC_CODE.translate(codon)


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
