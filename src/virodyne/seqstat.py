"""FASTA parsing, alignment assembly, and per-position Shannon entropy.

Positional entropy H(i) = -sum_k P_k(i) log2 P_k(i) over the residue types
observed at column i measures the randomness of that position; columns with
high entropy are the mutation-prone hot-spots. Gaps ('-') and ambiguity
codes ('N' for nucleotides, 'X' for amino acids) are masked out of the
counts rather than treated as extra symbols: an alignment holds each
residue's index in the alphabet, the masked ones at the alphabet's size,
and a column's counts are per-symbol sums down that index. An optional
pseudocount regularizes small samples:
P_k = (count_k + a) / (total + a * |alphabet|).

Inputs must be pre-aligned (equal-length rows); this module does not build
multiple sequence alignments. Positions are 1-based throughout, matching
biology convention.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, TextIO, Union

import numpy as np

from .core import AMINO_STATES, NUCLEOTIDES
from .errors import EmptyInput, LengthMismatch, NoData, ParseError

GAP = "-"
# A line that starts a record. CPython 3.11's str.split takes about 2.5
# times as long for this two-character separator.
_HEADER = re.compile("\n>")


class Alphabet(enum.Enum):
    NUCLEOTIDE = "nucleotide"
    AMINO = "amino"

    @property
    def symbols(self) -> str:
        return NUCLEOTIDES if self is Alphabet.NUCLEOTIDE else AMINO_STATES

    @property
    def ambiguity(self) -> str:
        return "N" if self is Alphabet.NUCLEOTIDE else "X"

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def index_table(self) -> bytes:
        """256-byte `bytes.translate` table from an ASCII code to its index
        in `symbols`; every other code (gap, ambiguity, anything else) maps
        to `size`."""
        table = bytearray([self.size]) * 256
        for i, code in enumerate(self.symbols.encode()):
            table[code] = i
        return bytes(table)

    def residue(self, ch: str) -> str | None:
        """What the character ch of a FASTA body reads as: None for
        whitespace; the symbol, gap or ambiguity code its upper case names
        ('U' reads as 'T' for nucleotides, 'ſ' as 'S'); '\\0' for anything
        else, 'ß' among them, whose upper case is 'SS'."""
        if ch.isspace():
            return None
        up = ch.upper()
        if up == "U" and self is Alphabet.NUCLEOTIDE:
            return "T"
        accepted = self.symbols + GAP + self.ambiguity
        return up if len(up) == 1 and up in accepted else "\0"

    @cached_property
    def residue_table(self) -> dict[int, str | None]:
        """`str.translate` table of `residue` over the ASCII codes."""
        return {code: self.residue(chr(code)) for code in range(128)}


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

    The text is read once and split into records at header lines (lines
    end at '\\n', as the handle reads them). `Alphabet.residue` is the one
    rule for a body's characters: each body is translated once through the
    alphabet's ASCII table of that rule, extended by the same rule to the
    body's non-ASCII characters, and the result is the sequence. A record
    fails on an empty header, reported at its line; on a character whose
    residue is '\\0', reported at the first one's line and column; or on an
    empty sequence, reported at the line after the record.
    """
    text = source if isinstance(source, str) else source.read()
    # The text's last '\n' ends its last line and opens none; the leading
    # '\n' puts every header, the first too, after a "\n>", so the piece
    # before the first header starts at a blank line 0.
    text = "\n" + text.removesuffix("\n")
    head, *pieces = _HEADER.split(text)
    if head.strip():  # reported at the line of its first non-space
        raise ParseError("sequence data before any '>' header",
                         head.count("\n", 0, len(head) - len(head.lstrip())), 1)
    records: list[FastaRecord] = []
    start = len(head) + 2  # where the loop's piece starts in text
    for piece in pieces:
        header, _, body = piece.partition("\n")
        ident = header.strip()
        table = alphabet.residue_table
        if not body.isascii():
            table = table | {ord(ch): alphabet.residue(ch)
                             for ch in set(body) if not ch.isascii()}
        seq = body.translate(table)
        if not ident or not seq or "\0" in seq:
            line = text.count("\n", 0, start)  # the header's
            if not ident:
                raise ParseError("empty FASTA header", line, 1)
            if "\0" in seq:
                at = min(body.find(ch) for ch in set(body) if table[ord(ch)] == "\0")
                raise ParseError(f"invalid {alphabet.value} symbol {body[at]!r}",
                                 line + 1 + body.count("\n", 0, at),
                                 at - body.rfind("\n", 0, at))
            raise ParseError(f"record '{ident}' has no sequence",
                             line + 1 + piece.count("\n"), 1)
        records.append(FastaRecord(ident, seq))
        start += len(piece) + 2
    if not records:
        raise EmptyInput("no FASTA records found")
    return records


@dataclass(frozen=True)
class AlignmentMatrix:
    """Equal-length residue rows, as ASCII codes and as symbol indices."""

    ids: tuple[str, ...]
    matrix: np.ndarray        # (n, L) uint8 ASCII codes of the residues
    index: np.ndarray         # (n, L) uint8 index in alphabet.symbols, size if masked
    alphabet: Alphabet
    truncated_rows: int = 0   # rows shortened in non-strict mode

    @property
    def mask(self) -> np.ndarray:
        """(n, L) bool, True where the residue is countable."""
        return self.index < self.alphabet.size

    @property
    def n_sequences(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def length(self) -> int:
        return int(self.matrix.shape[1])


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
    shape = (len(recs), target)
    return AlignmentMatrix(
        ids=tuple(r.identifier for r in recs),
        matrix=np.frombuffer(joined, dtype=np.uint8).reshape(shape),
        index=np.frombuffer(joined.translate(alphabet.index_table),
                            dtype=np.uint8).reshape(shape),
        alphabet=alphabet,
        truncated_rows=truncated,
    )


@dataclass(frozen=True)
class PositionDistribution:
    position: int                 # 1-based
    probabilities: np.ndarray     # over alphabet.symbols order
    effective_count: int          # unmasked residues in the column
    alphabet: Alphabet


# Rows per uint16 column sum, so that a count cannot overflow.
_COUNT_BLOCK = 2 ** 16 - 1


def _symbol_counts(index: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """(k, L) float counts of each alphabet symbol in every column of the
    (n, L) symbol-index block; masked entries (index k) are not counted.
    Each symbol is summed down the columns as uint16, _COUNT_BLOCK rows at
    a time."""
    counts = np.zeros((alphabet.size, index.shape[1]))
    for lo in range(0, index.shape[0], _COUNT_BLOCK):
        block = index[lo:lo + _COUNT_BLOCK]
        for s, row in enumerate(counts):
            row += (block == s).sum(axis=0, dtype=np.uint16)
    return counts


def column_distribution(alignment: AlignmentMatrix, position: int,
                        pseudocount: float = 0.0) -> PositionDistribution:
    """Residue distribution of one column, gaps and ambiguity excluded."""
    if not 0 <= pseudocount < math.inf:  # NaN included
        raise ValueError("pseudocount must be finite and >= 0")
    if not 1 <= position <= alignment.length:
        raise IndexError(f"position {position} outside 1..{alignment.length}")
    column = alignment.index[:, position - 1:position]
    counts = _symbol_counts(column, alignment.alphabet)[:, 0]
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
    counts = _symbol_counts(alignment.index, alignment.alphabet)
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
