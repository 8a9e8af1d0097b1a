"""Two-parameter Kimura substitution matrices and mutation-direction ranking.

The base substitution channel assigns probability q to the transition
partner (A<->G, C<->T), gamma*q to each of the two transversion partners,
and 1 - q(1 + 2 gamma) to staying put, giving a symmetric row-stochastic
4x4 matrix. Restricted modes keep the per-row mutation mass
q(1 + 2 gamma) and give all of it to one class: transitions only puts it on
the transition partner, transversions only splits it between the two
transversion partners (none when gamma q = 0). Conditioned on a mutation
happening, it is of the kept class.

Because per-site mutations are treated as independent, the 64x64 codon
matrix is the threefold Kronecker product of the base matrix, and the
amino-acid matrix aggregates codon paths under a per-amino-acid codon
weight distribution. STOP is carried as a first-class 21st state (a sense
codon can mutate into a termination codon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    AMINO_STATES,
    CODON_AMINO,
    CODON_INDEX,
    CODONS,
    NUCLEOTIDES,
    TRANSITION_PARTNER,
)
from .errors import InvalidParams, InvalidWeights, NoData
from .seqstat import Alphabet, AlignmentMatrix, column_distribution

ROW_SUM_TOL = 1e-12

# Where a base's transition partner sits in its row of a 4x4 matrix.
_TRANSITION = np.array([[TRANSITION_PARTNER[a] == b for b in NUCLEOTIDES]
                        for a in NUCLEOTIDES])


@dataclass(frozen=True)
class KimuraParams:
    """q: per-event transition probability scale; gamma: transversion-to-
    transition factor. Validity requires q (1 + 2 gamma) <= 1."""

    q: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.gamma)):
            raise InvalidParams("q and gamma must be finite")
        if self.q < 0 or self.gamma < 0:
            raise InvalidParams("q and gamma must be >= 0")
        if self.q * (1.0 + 2.0 * self.gamma) > 1.0 + 1e-15:
            raise InvalidParams(
                f"q (1 + 2 gamma) = {self.q * (1 + 2 * self.gamma)} exceeds 1"
            )

    @property
    def mutation_mass(self) -> float:
        return self.q * (1.0 + 2.0 * self.gamma)


class SubstitutionMode:
    FULL = "full"
    TRANSITIONS_ONLY = "ts"
    TRANSVERSIONS_ONLY = "tv"

    ALL = (FULL, TRANSITIONS_ONLY, TRANSVERSIONS_ONLY)


@dataclass(frozen=True)
class SubstitutionMatrix:
    """Row-stochastic substitution matrix with ordered state labels."""

    level: str               # 'base' | 'codon' | 'amino'
    states: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        n = len(self.states)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} states")
        if (m < -ROW_SUM_TOL).any():
            raise ValueError("substitution probabilities must be >= 0")
        rows = m.sum(axis=1)
        if np.abs(rows - 1.0).max() > 1e-9:
            raise ValueError(f"rows must sum to 1, worst deviation {np.abs(rows-1).max()}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "states", tuple(self.states))


def kimura_base_matrix(params: KimuraParams,
                       mode: str = SubstitutionMode.FULL) -> SubstitutionMatrix:
    """4x4 base substitution matrix over states A, C, G, T."""
    q, mass = params.q, params.mutation_mass
    tv = params.gamma * q
    # (transition, transversion) entry of each mode.
    entries = {
        SubstitutionMode.FULL: (q, tv),
        SubstitutionMode.TRANSITIONS_ONLY: (mass, 0.0),
        SubstitutionMode.TRANSVERSIONS_ONLY: (0.0, mass / 2 if tv > 0 else 0.0),
    }
    if mode not in SubstitutionMode.ALL:
        raise ValueError(f"mode must be one of {SubstitutionMode.ALL}")
    m = np.where(_TRANSITION, *entries[mode])
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, 1.0 - m.sum(axis=1))
    return SubstitutionMatrix(level="base", states=tuple(NUCLEOTIDES), matrix=m)


def codon_matrix(base: SubstitutionMatrix) -> SubstitutionMatrix:
    """64x64 codon matrix: independent per-site mutation, so the entry for
    c -> c' is the product of the three per-position base entries
    (threefold Kronecker product of the base matrix)."""
    if base.level != "base":
        raise ValueError("codon_matrix expects a base-level matrix")
    b = base.matrix
    m = np.kron(np.kron(b, b), b)
    return SubstitutionMatrix(level="codon", states=CODONS, matrix=m)


def uniform_codon_weights() -> np.ndarray:
    """Uniform weight over the synonymous codons of each amino acid."""
    return 1.0 / np.bincount(CODON_AMINO)[CODON_AMINO]


def empirical_codon_weights(codon_counts: Mapping[str, float]) -> np.ndarray:
    """Weights proportional to observed codon counts, normalized within each
    amino acid's synonym class; classes with no observations fall back to
    uniform."""
    w = np.zeros(64)
    for codon, count in codon_counts.items():
        if codon not in CODON_INDEX:
            raise InvalidWeights(f"unknown codon {codon!r}")
        if count < 0:
            raise InvalidWeights(f"negative count for codon {codon!r}")
        w[CODON_INDEX[codon]] = float(count)
    total = np.bincount(CODON_AMINO, weights=w, minlength=21)[CODON_AMINO]
    return np.divide(w, total, out=uniform_codon_weights(), where=total > 0)


def _validate_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (64,):
        raise InvalidWeights(f"codon weights must have shape (64,), got {w.shape}")
    if (w < 0).any() or not np.isfinite(w).all():
        raise InvalidWeights("codon weights must be finite and >= 0")
    totals = np.bincount(CODON_AMINO, weights=w, minlength=21)
    for aa, total in zip(AMINO_STATES, totals):
        if abs(total - 1.0) > 1e-9:
            raise InvalidWeights(
                f"weights for {aa!r} sum to {total}, expected 1"
            )
    return w


def amino_matrix(codon: SubstitutionMatrix,
                 codon_weights: np.ndarray | None = None) -> SubstitutionMatrix:
    """21x21 amino-acid matrix (20 amino acids + STOP).

    P(a -> b) = sum over codons c of a, weighted, of the total codon-matrix
    mass landing in b's codons. Weights within each synonym class must sum
    to 1 (uniform by default).
    """
    if codon.level != "codon":
        raise ValueError("amino_matrix expects a codon-level matrix")
    w = _validate_weights(uniform_codon_weights() if codon_weights is None
                          else codon_weights)
    # Aggregation matrix: codon -> amino acid membership.
    agg = np.zeros((64, 21))
    agg[np.arange(64), CODON_AMINO] = 1.0
    weighted = w[:, None] * codon.matrix           # (64, 64)
    m = agg.T @ weighted @ agg                     # (21, 21)
    return SubstitutionMatrix(level="amino", states=tuple(AMINO_STATES), matrix=m)


# ---------------------------------------------------------------------------
# Direction reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankedTarget:
    state: str
    probability: float


@dataclass(frozen=True)
class DirectionReport:
    """Where a position's residues are likely to mutate.

    `source` is the observed state distribution at the position; `targets`
    ranks destination states by the pushed-forward mutation mass
    sum_{a != b} p(a) P(a -> b), self-transitions excluded, ties broken by
    state order. Probabilities are per-generation masses, not renormalized.
    """

    level: str
    mode: str
    position: int
    source: dict[str, float]
    targets: tuple[RankedTarget, ...]


def _rank_targets(source_probs: np.ndarray, matrix: SubstitutionMatrix
                  ) -> tuple[RankedTarget, ...]:
    push = source_probs @ matrix.matrix
    self_mass = source_probs * np.diag(matrix.matrix)
    mutated = push - self_mass
    order = sorted(range(len(matrix.states)),
                   key=lambda j: (-mutated[j], j))
    return tuple(RankedTarget(matrix.states[j], float(mutated[j]))
                 for j in order)


def _codon_column(alignment: AlignmentMatrix, position: int) -> dict[str, int]:
    """Observed codon counts at 1-based amino position of a nucleotide
    alignment (columns 3p-2 .. 3p); rows with masked bases are skipped."""
    if alignment.alphabet is not Alphabet.NUCLEOTIDE:
        raise ValueError("codon columns need a nucleotide alignment")
    if position < 1:
        raise IndexError(f"amino position {position} is below 1")
    j0 = 3 * (position - 1)
    if j0 + 3 > alignment.length:
        raise IndexError(
            f"amino position {position} needs nucleotide columns up to "
            f"{j0 + 3}, alignment length is {alignment.length}"
        )
    index = alignment.index[:, j0:j0 + 3]
    bases = index[(index < alignment.alphabet.size).all(axis=1)]
    if bases.size == 0:
        raise NoData(f"no complete codons at amino position {position}")
    codes, first, counts = np.unique(bases @ (16, 4, 1), return_index=True,
                                     return_counts=True)
    order = np.argsort(first)  # first-occurrence order, as rows were read
    return {CODONS[c]: int(n) for c, n in zip(codes[order], counts[order])}


def mutation_direction(
    alignment: AlignmentMatrix,
    position: int,
    params: KimuraParams,
    level: str = "amino",
    mode: str = SubstitutionMode.FULL,
) -> DirectionReport:
    """Rank the likely mutation targets of one alignment position.

    level 'base': the position indexes a nucleotide column pushed through
    the 4x4 matrix. level 'codon' / 'amino': for nucleotide alignments the
    position indexes a codon (three nucleotide columns), and amino level
    weighs each synonymous codon by its observed share at that position
    (uniform within unobserved classes). Amino level for a protein
    alignment weighs synonymous codons uniformly.
    """
    base = kimura_base_matrix(params, mode)
    if level == "base":
        dist = column_distribution(alignment, position)
        if alignment.alphabet is not Alphabet.NUCLEOTIDE:
            raise ValueError("base-level direction needs a nucleotide alignment")
        source, matrix = dist.probabilities, base
    elif level == "codon":
        counts = _codon_column(alignment, position)
        total = sum(counts.values())
        source_dict = {c: n / total for c, n in counts.items()}
        source = np.zeros(64)
        source[[CODON_INDEX[c] for c in counts]] = list(source_dict.values())
        matrix = codon_matrix(base)
    elif level == "amino":
        weights = None  # uniform within each synonym class
        if alignment.alphabet is Alphabet.NUCLEOTIDE:
            counts = _codon_column(alignment, position)
            weights = empirical_codon_weights(counts)
            total = sum(counts.values())
            source = np.bincount(CODON_AMINO[[CODON_INDEX[c] for c in counts]],
                                 [n / total for n in counts.values()], minlength=21)
        else:
            source = column_distribution(alignment, position).probabilities
        matrix = amino_matrix(codon_matrix(base), weights)
    else:
        raise ValueError("level must be 'base', 'codon', or 'amino'")
    if level != "codon":  # codon sources keep first-occurrence order
        source_dict = {s: float(p) for s, p in zip(matrix.states, source) if p > 0}
    return DirectionReport(level=level, mode=mode, position=position,
                           source=source_dict, targets=_rank_targets(source, matrix))
