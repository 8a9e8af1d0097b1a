"""The vectorised genetic layer against its per-character reference.

`genetic_oracle` holds the implementations the fast code replaced. Every
property here demands exact agreement: the same records or the same error
(type, message, line, column), the same alignment codes and mask,
bit-identical entropies and distributions, the same codon counts in the
same order, and the same hot-spot list.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genetic_oracle as oracle
from virodyne import seqstat
from virodyne.core import CODONS
from virodyne.errors import InvalidWeights, NoData, ParseError, VirodyneError
from virodyne.mutation import (
    _codon_column,
    _validate_weights,
    empirical_codon_weights,
    uniform_codon_weights,
)
from virodyne.seqstat import (
    Alphabet,
    EntropyProfile,
    FastaRecord,
    build_alignment,
    column_distribution,
    hotspots,
    parse_fasta,
    positional_entropy,
)

ALPHABETS = st.sampled_from([Alphabet.NUCLEOTIDE, Alphabet.AMINO])

# Characters whose case mapping or whitespace status trips a naive check:
# 'ß'.upper() is 'SS', 'ﬀ'.upper() is 'FF', 'ı'.upper() is 'I', 'ſ'.upper()
# is 'S', U+00A0 is whitespace, U+212A (Kelvin sign) is not 'K'.
TRICKY = "ßﬀıſ\xa0K"
SEQ_CHARS = ("ACGTUNX-*acgtunx" + "DEFHIKLMPQRSVWYdefhiklmpqrsvwy"
             + " \t\r\x0b\x0c\x1c" + TRICKY + "!.1>")


def _clean_chars(alphabet):
    """Characters the parser accepts, slow path included ('ı' and 'ſ'
    uppercase into the amino alphabet; U+00A0 is whitespace)."""
    chars = alphabet.symbols + "-" + alphabet.ambiguity
    extra = "uU" if alphabet is Alphabet.NUCLEOTIDE else "ıſ"
    return chars + chars.lower() + extra + " \t\r\x0b\x0c\x1c\xa0"


@st.composite
def fasta_texts(draw, alphabet):
    lines = [">first"] if draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["header"] + ["seq"] * 6 + ["blank"]))
        if kind == "header":
            blank_ok = draw(st.integers(0, 5)) == 0
            lines.append(">" + draw(st.text(
                alphabet="ab1" + TRICKY + (" \t" if blank_ok else ""),
                min_size=0 if blank_ok else 1, max_size=6)))
        elif kind == "seq":
            pool = SEQ_CHARS if draw(st.integers(0, 5)) == 0 \
                else _clean_chars(alphabet)
            lines.append(draw(st.text(alphabet=pool, max_size=30)))
        else:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


def _outcome(parse, text, alphabet):
    try:
        return ("ok", parse(text, alphabet))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)
    except VirodyneError as exc:
        return (type(exc).__name__, str(exc))


@given(st.data(), ALPHABETS)
@settings(max_examples=400, deadline=None)
def test_parse_matches_per_character_scan(data, alphabet):
    text = data.draw(fasta_texts(alphabet))
    assert _outcome(parse_fasta, text, alphabet) == \
        _outcome(oracle.parse_fasta, text, alphabet)


@pytest.mark.parametrize("alphabet", list(Alphabet))
@pytest.mark.parametrize("ch", list(TRICKY))
def test_parse_tricky_characters(alphabet, ch):
    text = f">a\nAC{ch}A\n"
    assert _outcome(parse_fasta, text, alphabet) == \
        _outcome(oracle.parse_fasta, text, alphabet)


def test_parse_rejects_eszett_for_amino():
    # Validation must run before upper-casing: 'ß'.upper() == 'SS'.
    with pytest.raises(ParseError) as err:
        parse_fasta(">a\nMKß\n", Alphabet.AMINO)
    assert (err.value.line, err.value.column) == (2, 3)


@st.composite
def alignments(draw):
    alphabet = draw(ALPHABETS)
    pool = alphabet.symbols + "-" + alphabet.ambiguity
    # Characters a hand-built record can hold that parsing never yields.
    if draw(st.booleans()):
        pool += "acx?ß"
    n = draw(st.integers(1, 9))
    length = draw(st.integers(1, 24))
    rows = [list(draw(st.text(alphabet=pool, min_size=length, max_size=length)))
            for _ in range(n)]
    for j in draw(st.sets(st.integers(0, length - 1), max_size=3)):
        for row in rows:
            row[j] = "-"
    strict = draw(st.booleans())
    if not strict:
        rows = [row + list(draw(st.text(alphabet=pool, max_size=4)))
                for row in rows]
    records = [FastaRecord(f"r{i}", "".join(row)) for i, row in enumerate(rows)]
    pseudocount = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0])
                       | st.floats(0.0, 5.0))
    return records, alphabet, strict, pseudocount


@given(alignments(), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_row_blocked_counts_match_reference(case, block):
    # A block of `block` codes holds block // length rows (at least one),
    # so most drawn alignments span several blocks, some ending mid-block.
    records, alphabet, strict, pseudocount = case
    aln = build_alignment(records, alphabet, strict_length=strict)
    matrix, mask, _ = oracle.build_alignment(records, alphabet, strict)
    whole = seqstat._symbol_counts(aln.matrix, alphabet)
    with mock.patch.object(seqstat, "_COUNT_BLOCK", block):
        blocked = seqstat._symbol_counts(aln.matrix, alphabet)
        profile = positional_entropy(aln, pseudocount=pseudocount)
    assert blocked.tobytes() == whole.tobytes()
    assert np.array_equal(whole.sum(axis=0), mask.sum(axis=0))
    ent, n_eff = oracle.positional_entropy(matrix, mask, alphabet, pseudocount)
    assert profile.entropies.tobytes() == ent.tobytes()
    assert np.array_equal(profile.n_effective, n_eff)


def _expected_codes(matrix):
    return np.array([[ord(c) if ord(c) < 128 else ord("?") for c in row]
                     for row in matrix], dtype=np.uint8).reshape(matrix.shape)


def _codons(counter, *args):
    try:
        return list(counter(*args).items())
    except NoData as exc:
        return str(exc)


@given(alignments())
@settings(max_examples=300, deadline=None)
def test_alignment_counts_match_reference(case):
    records, alphabet, strict, pseudocount = case
    aln = build_alignment(records, alphabet, strict_length=strict)
    matrix, mask, truncated = oracle.build_alignment(records, alphabet, strict)

    assert aln.matrix.dtype == np.uint8
    assert np.array_equal(aln.matrix, _expected_codes(matrix))
    assert np.array_equal(aln.mask, mask)
    assert aln.truncated_rows == truncated

    profile = positional_entropy(aln, pseudocount=pseudocount)
    ent, n_eff = oracle.positional_entropy(matrix, mask, alphabet, pseudocount)
    assert profile.entropies.tobytes() == ent.tobytes()
    assert np.array_equal(profile.n_effective, n_eff)

    for pos in range(1, aln.length + 1):
        try:
            want = oracle.column_distribution(matrix, mask, alphabet, pos,
                                              pseudocount)
        except NoData:
            with pytest.raises(NoData):
                column_distribution(aln, pos, pseudocount)
            continue
        dist = column_distribution(aln, pos, pseudocount)
        assert dist.probabilities.tobytes() == want[0].tobytes()
        assert dist.effective_count == want[1]

    if alphabet is Alphabet.NUCLEOTIDE:
        for pos in range(1, aln.length // 3 + 1):
            assert _codons(_codon_column, aln, pos) == \
                _codons(oracle.codon_counts, matrix, mask, pos)


@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, 2.0, np.nan,
                                 np.inf, -np.inf]), max_size=30),
       st.integers(0, 35), st.sampled_from([0.0, 0.5, 1.0, 1.7, 3.0, np.nan]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_hotspots_match_python_sort(values, top_k, min_entropy, by_count):
    ent = np.array(values, dtype=float)
    profile = EntropyProfile(entropies=ent, n_effective=np.zeros(ent.size, int),
                             alphabet=Alphabet.NUCLEOTIDE)
    if by_count:
        got = hotspots(profile, top_k=top_k)
        want = oracle.hotspots(ent, top_k=top_k)
    else:
        got = hotspots(profile, min_entropy=min_entropy)
        want = oracle.hotspots(ent, min_entropy=min_entropy)
    assert [(h.position, repr(h.entropy)) for h in got] == \
        [(h.position, repr(h.entropy)) for h in want]


def test_uniform_codon_weights_match_loop():
    assert uniform_codon_weights().tobytes() == \
        oracle.uniform_codon_weights().tobytes()


@given(st.dictionaries(st.sampled_from(CODONS),
                       st.integers(0, 9) | st.floats(0.0, 5.0), max_size=64),
       st.integers(0, 63), st.sampled_from([0.0, 5e-10, -2e-9, 0.3]))
@settings(max_examples=300, deadline=None)
def test_codon_weights_match_loop(counts, codon, nudge):
    w = empirical_codon_weights(counts)
    assert w.tobytes() == oracle.empirical_codon_weights(counts).tobytes()
    w[codon] = max(w[codon] + nudge, 0.0)

    def outcome(check):
        try:
            check(w)
        except InvalidWeights as exc:
            return str(exc)
        return None
    assert outcome(_validate_weights) == outcome(oracle.check_weight_sums)
