"""FASTA parsing, alignment assembly, and per-position Shannon entropy.

Positional entropy H(i) = -sum_k P_k(i) log2 P_k(i) over the residue types
observed at column i measures the randomness of that position; columns with
high entropy are the mutation-prone hot-spots. Gaps ('-') and ambiguity
codes ('N' for nucleotides, 'X' for amino acids) are masked out of the
counts rather than treated as extra symbols. An optional pseudocount
regularizes small samples: P_k = (count_k + a) / (total + a * |alphabet|).

Inputs must be pre-aligned (equal-length rows); this module does not build
multiple sequence alignments. Positions are 1-based throughout, matching
biology convention.
"""

from __future__ import annotations

import enum
import io
import math
import string
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, TextIO, Union

import numpy as np

from .core import AMINO_STATES
from .errors import EmptyInput, LengthMismatch, NoData, ParseError

GAP = "-"


class Alphabet(enum.Enum):
    NUCLEOTIDE = "nucleotide"
    AMINO = "amino"

    @property
    def symbols(self) -> str:
        return "ACGT" if self is Alphabet.NUCLEOTIDE else AMINO_STATES

    @property
    def ambiguity(self) -> str:
        return "N" if self is Alphabet.NUCLEOTIDE else "X"

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def code_index(self) -> np.ndarray:
        """Read-only 256-entry table from an ASCII code to its index in
        `symbols`; every other code (gap, ambiguity, anything else) maps to
        `size`."""
        table = np.full(256, self.size, dtype=np.intp)
        table[np.frombuffer(self.symbols.encode(), np.uint8)] = np.arange(self.size)
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class FastaRecord:
    identifier: str
    sequence: str


def parse_fasta(source: Union[str, TextIO], alphabet: Alphabet) -> list[FastaRecord]:
    """Parse FASTA text into normalized records.

    Residues are uppercased; RNA 'U' becomes 'T' for nucleotide input. Gaps
    and the alphabet's ambiguity code are preserved (they are masked later,
    not counted). Any other character raises ParseError with its line and
    column; an input with no records raises EmptyInput.
    """
    handle = io.StringIO(source) if isinstance(source, str) else source
    allowed = set(alphabet.symbols) | {GAP, alphabet.ambiguity}
    nucleotide = alphabet is Alphabet.NUCLEOTIDE
    # A line made only of these ASCII characters and whitespace needs no
    # per-character scan. The check runs on the raw line: 'ß'.upper() is 'SS'.
    accepted = "".join(allowed) + ("U" if nucleotide else "")
    plain = accepted + accepted.lower()
    drop_plain = str.maketrans("", "", plain + string.whitespace)
    # Both cases to upper case (U and u to T), whitespace dropped.
    normalize = str.maketrans(plain, accepted.replace("U", "T") * 2,
                              string.whitespace)
    records: list[FastaRecord] = []
    ident: str | None = None
    chunks: list[str] = []

    def flush(line_no: int) -> None:
        nonlocal ident, chunks
        if ident is None:
            return
        seq = "".join(chunks)
        if not seq:
            raise ParseError(f"record '{ident}' has no sequence", line_no, 1)
        records.append(FastaRecord(ident, seq))
        ident, chunks = None, []

    line_no = 0
    for line_no, raw in enumerate(handle, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if line.startswith(">"):
            flush(line_no)
            ident = line[1:].strip()
            if not ident:
                raise ParseError("empty FASTA header", line_no, 1)
            continue
        if ident is None:
            raise ParseError("sequence data before any '>' header", line_no, 1)
        if not line.translate(drop_plain):
            chunks.append(line.translate(normalize))
            continue
        cleaned = []
        for col, ch in enumerate(line, start=1):
            if ch.isspace():
                continue
            up = ch.upper()
            if nucleotide and up == "U":
                up = "T"
            if up not in allowed:
                raise ParseError(f"invalid {alphabet.value} symbol {ch!r}",
                                 line_no, col)
            cleaned.append(up)
        chunks.append("".join(cleaned))
    flush(line_no + 1)
    if not records:
        raise EmptyInput("no FASTA records found")
    return records


@dataclass(frozen=True)
class AlignmentMatrix:
    """Equal-length residue rows with a validity mask (gaps/ambiguity False)."""

    ids: tuple[str, ...]
    matrix: np.ndarray        # (n, L) uint8 ASCII codes of the residues
    mask: np.ndarray          # (n, L) bool, True where residue is countable
    alphabet: Alphabet
    truncated_rows: int = 0   # rows shortened in non-strict mode

    @property
    def n_sequences(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def length(self) -> int:
        return int(self.matrix.shape[1])

    def column(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """(residues, mask) of a 1-based column."""
        if not 1 <= position <= self.length:
            raise IndexError(f"position {position} outside 1..{self.length}")
        j = position - 1
        return self.matrix[:, j], self.mask[:, j]


def build_alignment(records: Iterable[FastaRecord], alphabet: Alphabet,
                    strict_length: bool = True) -> AlignmentMatrix:
    """Stack records into an alignment matrix.

    strict mode requires all sequences to share one length and names the
    offenders otherwise; non-strict mode truncates every row to the shortest
    and reports how many rows lost residues via `truncated_rows`.
    """
    recs = list(records)
    if not recs:
        raise EmptyInput("cannot build an alignment from zero records")
    lengths = [len(r.sequence) for r in recs]
    target = lengths[0] if strict_length else min(lengths)
    if strict_length and any(n != target for n in lengths):
        offenders = [r.identifier for r, n in zip(recs, lengths) if n != target]
        raise LengthMismatch(
            f"sequences differ in length (expected {target}): {offenders}",
            offenders,
        )
    truncated = sum(1 for n in lengths if n > target)
    # Non-ASCII (possible only in hand-built records) becomes a masked '?'.
    joined = "".join(r.sequence[:target] for r in recs).encode("ascii", "replace")
    matrix = np.frombuffer(joined, dtype=np.uint8).reshape(len(recs), target)
    mask = alphabet.code_index[matrix] < alphabet.size
    return AlignmentMatrix(
        ids=tuple(r.identifier for r in recs),
        matrix=matrix,
        mask=mask,
        alphabet=alphabet,
        truncated_rows=truncated,
    )


@dataclass(frozen=True)
class PositionDistribution:
    position: int                 # 1-based
    probabilities: np.ndarray     # over alphabet.symbols order
    effective_count: int          # unmasked residues in the column
    alphabet: Alphabet


_COUNT_BLOCK = 2 ** 20  # codes per bincount


def _symbol_counts(codes: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """(k, L) float counts of each alphabet symbol in every column of the
    (n, L) code block; masked codes fall into a dropped (k+1)-th bin.
    Rows are counted in blocks of about _COUNT_BLOCK codes, so the index
    array stays bounded for deep alignments."""
    k = alphabet.size
    L = codes.shape[1]
    bins = np.zeros((k + 1) * L, dtype=np.intp)
    rows = max(1, _COUNT_BLOCK // max(L, 1))
    for lo in range(0, codes.shape[0], rows):
        flat = alphabet.code_index[codes[lo:lo + rows]]  # fresh: in place is safe
        flat *= L
        flat += np.arange(L)
        bins += np.bincount(flat.ravel(), minlength=(k + 1) * L)
    return bins.reshape(k + 1, L)[:k].astype(float)


def column_distribution(alignment: AlignmentMatrix, position: int,
                        pseudocount: float = 0.0) -> PositionDistribution:
    """Residue distribution of one column, gaps and ambiguity excluded."""
    if not 0 <= pseudocount < math.inf:  # NaN included
        raise ValueError("pseudocount must be finite and >= 0")
    residues, _ = alignment.column(position)
    counts = _symbol_counts(residues[:, None], alignment.alphabet)[:, 0]
    valid = counts.sum()
    if valid == 0:
        raise NoData(f"column {position} holds no unmasked residues")
    total = valid + pseudocount * alignment.alphabet.size
    probs = (counts + pseudocount) / total
    return PositionDistribution(position=position, probabilities=probs,
                                effective_count=int(valid),
                                alphabet=alignment.alphabet)


@dataclass(frozen=True)
class EntropyProfile:
    """H(i) in bits for every column; NaN marks columns with no data."""

    entropies: np.ndarray     # (L,)
    n_effective: np.ndarray   # (L,) unmasked residues per column
    alphabet: Alphabet

    @property
    def length(self) -> int:
        return int(self.entropies.size)

    def defined_positions(self) -> np.ndarray:
        return np.where(np.isfinite(self.entropies))[0] + 1


def positional_entropy(alignment: AlignmentMatrix,
                       pseudocount: float = 0.0) -> EntropyProfile:
    """Shannon entropy (bits) of every alignment column.

    Columns are independent, so the computation order is irrelevant;
    columns with zero unmasked residues are reported as NaN rather than
    raising.
    """
    if not 0 <= pseudocount < math.inf:  # NaN included
        raise ValueError("pseudocount must be finite and >= 0")
    ent = np.full(alignment.length, np.nan)
    k = alignment.alphabet.size
    counts = _symbol_counts(alignment.matrix, alignment.alphabet)
    totals = counts.sum(axis=0)
    defined = totals > 0
    denom = totals[defined] + pseudocount * k
    probs = (counts[:, defined] + pseudocount) / denom
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log2(probs), 0.0)
    # Clamp the tiny negative zeros that float arithmetic produces.
    ent[defined] = np.maximum(-terms.sum(axis=0), 0.0)
    return EntropyProfile(entropies=ent, n_effective=totals.astype(int),
                          alphabet=alignment.alphabet)


@dataclass(frozen=True)
class Hotspot:
    position: int   # 1-based
    entropy: float  # bits


def hotspots(profile: EntropyProfile, top_k: int | None = None,
             min_entropy: float | None = None) -> list[Hotspot]:
    """Columns ranked by entropy, highest first, ties by ascending position.

    Exactly one of top_k / min_entropy selects the cut; top_k larger than
    the profile is clipped.
    """
    if (top_k is None) == (min_entropy is None):
        raise ValueError("choose exactly one of top_k or min_entropy")
    ent = profile.entropies
    finite = np.flatnonzero(np.isfinite(ent))
    ranked = finite[np.lexsort((finite, -ent[finite]))]
    if top_k is not None:
        if top_k < 0:
            raise ValueError("top_k must be >= 0")
        chosen = ranked[:top_k]
    else:
        if np.isnan(min_entropy):
            raise ValueError("min_entropy must not be NaN")
        chosen = ranked[ent[ranked] >= min_entropy]
    return [Hotspot(position=int(i) + 1, entropy=float(ent[i])) for i in chosen]
