"""Reference implementations of the genetic layer, kept as test oracles.

These are the per-character FASTA scan, the `U1` alignment with its
`np.isin` mask, the one-symbol-at-a-time column counts, the Python sort of
hot-spots, the per-row codon tally and the per-amino-acid codon weight
loops that `virodyne.seqstat` and `virodyne.mutation` used before they were
vectorised, the codon-by-codon genetic-code table that `virodyne.core` kept
before `CODON_AMINO`, and the Kimura base matrix built by rescaling the kept
class row by row. The fast code must agree with them exactly: the same
records or the same `ParseError`, the same mask, bit-identical entropies,
weights and matrices, the same translations, and the same codon counts in
the same order.
"""

from __future__ import annotations

import io
import math

import numpy as np

from virodyne.core import (
    AMINO_STATES,
    CODON_INDEX,
    NUCLEOTIDE_INDEX,
    NUCLEOTIDES,
    TRANSITION_PARTNER,
)
from virodyne.errors import (
    EmptyInput,
    InvalidWeights,
    LengthMismatch,
    NoData,
    ParseError,
)
from virodyne.seqstat import GAP, Alphabet, FastaRecord, Hotspot


def parse_fasta(text: str, alphabet: Alphabet) -> list[FastaRecord]:
    handle = io.StringIO(text)
    allowed = set(alphabet.symbols) | {GAP, alphabet.ambiguity}
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
        cleaned = []
        for col, ch in enumerate(line, start=1):
            if ch.isspace():
                continue
            up = ch.upper()
            if alphabet is Alphabet.NUCLEOTIDE and up == "U":
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


def build_alignment(records, alphabet: Alphabet, strict_length: bool = True):
    """(U1 matrix, mask, truncated_rows) as the character-array builder
    made them."""
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
    rows = [list(r.sequence[:target]) for r in recs]
    matrix = np.array(rows, dtype="U1")
    mask = np.isin(matrix, list(set(alphabet.symbols)))
    return matrix, mask, truncated


def symbol_counts(matrix, mask, alphabet: Alphabet):
    """(k, L) float counts of each symbol, counted one symbol at a time."""
    counts = np.zeros((alphabet.size, matrix.shape[1]))
    for si, s in enumerate(alphabet.symbols):
        counts[si] = ((matrix == s) & mask).sum(axis=0)
    return counts


def positional_entropy(matrix, mask, alphabet: Alphabet,
                       pseudocount: float = 0.0):
    """(entropies, n_effective) from the per-symbol counts."""
    ent = np.full(matrix.shape[1], np.nan)
    k = alphabet.size
    counts = symbol_counts(matrix, mask, alphabet)
    totals = counts.sum(axis=0)
    n_eff = totals.astype(int)
    defined = totals > 0
    denom = totals[defined] + pseudocount * k
    probs = (counts[:, defined] + pseudocount) / denom
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log2(probs), 0.0)
    ent[defined] = -terms.sum(axis=0)
    ent[defined] = np.maximum(ent[defined], 0.0)
    return ent, n_eff


def column_distribution(matrix, mask, alphabet: Alphabet, position: int,
                        pseudocount: float = 0.0):
    """(probabilities, effective_count) of one 1-based column."""
    j = position - 1
    valid = matrix[:, j][mask[:, j]]
    if valid.size == 0:
        raise NoData(f"column {position} holds no unmasked residues")
    symbols = alphabet.symbols
    counts = np.array([(valid == s).sum() for s in symbols], dtype=float)
    total = counts.sum() + pseudocount * len(symbols)
    return (counts + pseudocount) / total, int(valid.size)


def codon_counts(matrix, mask, position: int) -> dict[str, int]:
    """Codon tally at a 1-based amino position, in first-occurrence order."""
    j0 = 3 * (position - 1)
    counts: dict[str, int] = {}
    sub = matrix[:, j0:j0 + 3]
    ok = mask[:, j0:j0 + 3].all(axis=1)
    for row in sub[ok]:
        codon = "".join(row)
        counts[codon] = counts.get(codon, 0) + 1
    if not counts:
        raise NoData(f"no complete codons at amino position {position}")
    return counts


def hotspots(entropies, top_k=None, min_entropy=None) -> list[Hotspot]:
    candidates = [
        Hotspot(position=i + 1, entropy=float(entropies[i]))
        for i in range(entropies.size)
        if math.isfinite(entropies[i])
    ]
    candidates.sort(key=lambda h: (-h.entropy, h.position))
    if top_k is not None:
        return candidates[:min(top_k, len(candidates))]
    return [h for h in candidates if h.entropy >= min_entropy]


def uniform_codon_weights() -> np.ndarray:
    w = np.zeros(64)
    for aa in AMINO_STATES:
        codons = standard_codons_for(aa)
        for c in codons:
            w[CODON_INDEX[c]] = 1.0 / len(codons)
    return w


def empirical_codon_weights(codon_counts) -> np.ndarray:
    w = np.zeros(64)
    for codon, count in codon_counts.items():
        w[CODON_INDEX[codon]] = float(count)
    for aa in AMINO_STATES:
        codons = standard_codons_for(aa)
        idx = [CODON_INDEX[c] for c in codons]
        total = w[idx].sum()
        if total > 0:
            w[idx] /= total
        else:
            w[idx] = 1.0 / len(idx)
    return w


def check_weight_sums(w: np.ndarray) -> None:
    """The per-amino-acid sum check of `mutation._validate_weights`."""
    for aa in AMINO_STATES:
        idx = [CODON_INDEX[c] for c in standard_codons_for(aa)]
        total = w[idx].sum()
        if abs(total - 1.0) > 1e-9:
            raise InvalidWeights(
                f"weights for {aa!r} sum to {total}, expected 1"
            )


_NCBI_BASE_ORDER = "TCAG"
_NCBI_AA64 = "FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG"


def standard_code() -> dict[str, str]:
    """Codon -> amino acid ('*' = STOP), read off NCBI's string one codon at
    a time."""
    table = {}
    for i, aa in enumerate(_NCBI_AA64):
        b1 = _NCBI_BASE_ORDER[i // 16]
        b2 = _NCBI_BASE_ORDER[(i // 4) % 4]
        b3 = _NCBI_BASE_ORDER[i % 4]
        table[b1 + b2 + b3] = aa
    return table


def standard_codons_for(amino_acid: str) -> tuple[str, ...]:
    return tuple(sorted(c for c, a in standard_code().items() if a == amino_acid))


def kimura_base_matrix(q: float, gamma: float, mode: str) -> np.ndarray:
    """The 4x4 matrix of mode 'full', 'ts' or 'tv': the full matrix with the
    excluded class zeroed and the kept entries of each row rescaled to carry
    the mutation mass q (1 + 2 gamma)."""
    mass = q * (1.0 + 2.0 * gamma)
    m = np.zeros((4, 4))
    for i, a in enumerate(NUCLEOTIDES):
        for j, b in enumerate(NUCLEOTIDES):
            if a == b:
                continue
            m[i, j] = q if TRANSITION_PARTNER[a] == b else gamma * q
    if mode == "ts":
        keep = np.zeros_like(m, dtype=bool)
        for a, b in TRANSITION_PARTNER.items():
            keep[NUCLEOTIDE_INDEX[a], NUCLEOTIDE_INDEX[b]] = True
        m = _restrict(m, keep, mass)
    elif mode == "tv":
        keep = (m > 0)
        for a, b in TRANSITION_PARTNER.items():
            keep[NUCLEOTIDE_INDEX[a], NUCLEOTIDE_INDEX[b]] = False
        m = _restrict(m, keep, mass)
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, 1.0 - m.sum(axis=1))
    return m


def _restrict(m: np.ndarray, keep: np.ndarray, mass: float) -> np.ndarray:
    out = np.where(keep, m, 0.0)
    if mass == 0.0:
        return out
    for i in range(m.shape[0]):
        row = out[i].sum()
        if row > 0:
            out[i] = (out[i] / row) * mass
    return out
